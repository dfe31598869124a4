// Package model holds the shared domain types of the SWAMP platform:
// telemetry readings, device descriptors, physical quantities and field
// geometry. Every other package speaks in terms of these types so that the
// transport (MQTT), context (NGSI) and decision (irrigation) layers agree on
// a single vocabulary.
package model

import (
	"fmt"
	"math"
	"time"

	"github.com/swamp-project/swamp/internal/tenant"
)

// DeviceID uniquely identifies a device (sensor, actuator, drone or fog
// node) inside one SWAMP deployment. IDs are assigned at provisioning time
// by the IoT agent and embedded in every reading the device publishes.
type DeviceID string

// DeviceKind classifies the hardware role of a device.
type DeviceKind int

// Device kinds. Starting at 1 so that the zero value is invalid and
// accidental zero-valued descriptors are caught by Validate.
const (
	KindUnknown DeviceKind = iota
	KindSoilProbe
	KindDrone
	KindValveActuator
	KindPumpActuator
	KindGateActuator
	KindFogNode
)

var kindNames = map[DeviceKind]string{
	KindUnknown:       "unknown",
	KindSoilProbe:     "soil-probe",
	KindDrone:         "drone",
	KindValveActuator: "valve-actuator",
	KindPumpActuator:  "pump-actuator",
	KindGateActuator:  "gate-actuator",
	KindFogNode:       "fog-node",
}

// String implements fmt.Stringer.
func (k DeviceKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("device-kind(%d)", int(k))
}

// IsActuator reports whether the kind commands physical equipment rather
// than sensing it.
func (k DeviceKind) IsActuator() bool {
	switch k {
	case KindValveActuator, KindPumpActuator, KindGateActuator:
		return true
	}
	return false
}

// Quantity names a physical quantity carried by a reading. The set is open:
// a pilot may add its own.
type Quantity string

// Quantities the platform names.
const (
	QSoilMoisture  Quantity = "soilMoisture" // volumetric water content, m3/m3
	QSoilTemp      Quantity = "soilTemperature"
	QNDVI          Quantity = "ndvi"          // unitless -1..1
	QValveState    Quantity = "valveState"    // 0 closed, 1 open
	QAppliedDepth  Quantity = "appliedDepth"  // mm of irrigation applied
	QEnergy        Quantity = "energyUsed"    // kWh
	QWaterConsumed Quantity = "waterConsumed" // m3
)

// Reading is a single timestamped measurement (or actuator state report)
// from one device. Depth is only meaningful for soil probes and is zero
// otherwise.
type Reading struct {
	Device   DeviceID
	Quantity Quantity
	Value    float64
	Unit     string
	Depth    float64 // metres below surface, soil probes only
	Location GeoPoint
	At       time.Time
}

// Validate reports the first structural problem with the reading, or nil.
func (r Reading) Validate() error {
	switch {
	case r.Device == "":
		return fmt.Errorf("reading: empty device id")
	case r.Quantity == "":
		return fmt.Errorf("reading %s: empty quantity", r.Device)
	case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
		return fmt.Errorf("reading %s/%s: non-finite value", r.Device, r.Quantity)
	case r.At.IsZero():
		return fmt.Errorf("reading %s/%s: zero timestamp", r.Device, r.Quantity)
	}
	return nil
}

// Descriptor is the provisioning record for a device: identity, role and
// placement. The IoT agent stores one per provisioned device and tags all
// northbound traffic with it.
type Descriptor struct {
	ID       DeviceID
	Kind     DeviceKind
	Owner    tenant.ID // farmer / tenant that owns the data (paper §III)
	Location GeoPoint
	Depths   []float64 // for multi-depth soil probes
	APIKey   string    // shared key used on the southbound transport
}

// Validate reports the first structural problem with the descriptor.
func (d Descriptor) Validate() error {
	switch {
	case d.ID == "":
		return fmt.Errorf("descriptor: empty device id")
	case d.Kind == KindUnknown:
		return fmt.Errorf("descriptor %s: unknown kind", d.ID)
	case d.Owner == "":
		return fmt.Errorf("descriptor %s: empty owner", d.ID)
	}
	return nil
}

// Command is a southbound instruction to an actuator, e.g. "open valve 7 at
// 60%%" or "set pivot sector 12 rate to 8mm".
type Command struct {
	Target DeviceID
	Name   string  // actuator-specific verb: "setRate", "open", "close", ...
	Value  float64 // verb-specific magnitude
	Issuer string  // authenticated principal that issued the command
	At     time.Time
}

// Validate reports the first structural problem with the command.
func (c Command) Validate() error {
	switch {
	case c.Target == "":
		return fmt.Errorf("command: empty target")
	case c.Name == "":
		return fmt.Errorf("command %s: empty name", c.Target)
	case math.IsNaN(c.Value) || math.IsInf(c.Value, 0):
		return fmt.Errorf("command %s/%s: non-finite value", c.Target, c.Name)
	}
	return nil
}
