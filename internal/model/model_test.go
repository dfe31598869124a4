package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestReadingValidate(t *testing.T) {
	now := time.Now()
	good := Reading{Device: "d1", Quantity: QSoilMoisture, Value: 0.3, At: now}
	if err := good.Validate(); err != nil {
		t.Errorf("valid reading rejected: %v", err)
	}
	bad := []Reading{
		{Quantity: QSoilMoisture, Value: 1, At: now},
		{Device: "d", Value: 1, At: now},
		{Device: "d", Quantity: QSoilMoisture, Value: math.NaN(), At: now},
		{Device: "d", Quantity: QSoilMoisture, Value: math.Inf(1), At: now},
		{Device: "d", Quantity: QSoilMoisture, Value: 1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid reading accepted", i)
		}
	}
}

func TestDescriptorValidate(t *testing.T) {
	good := Descriptor{ID: "probe-1", Kind: KindSoilProbe, Owner: "farm-a"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid descriptor rejected: %v", err)
	}
	for i, d := range []Descriptor{
		{Kind: KindSoilProbe, Owner: "o"},
		{ID: "x", Owner: "o"},
		{ID: "x", Kind: KindSoilProbe},
	} {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid descriptor accepted", i)
		}
	}
}

func TestCommandValidate(t *testing.T) {
	good := Command{Target: "valve-1", Name: "open", Value: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid command rejected: %v", err)
	}
	for i, c := range []Command{
		{Name: "open"},
		{Target: "v"},
		{Target: "v", Name: "open", Value: math.NaN()},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid command accepted", i)
		}
	}
}

func TestDeviceKindStringAndActuator(t *testing.T) {
	if KindSoilProbe.String() != "soil-probe" {
		t.Errorf("got %q", KindSoilProbe.String())
	}
	if DeviceKind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
	if KindSoilProbe.IsActuator() {
		t.Error("soil probe is not an actuator")
	}
	for _, k := range []DeviceKind{KindValveActuator, KindPumpActuator, KindGateActuator} {
		if !k.IsActuator() {
			t.Errorf("%v should be an actuator", k)
		}
	}
}

func TestGeoDistanceAndOffset(t *testing.T) {
	p := GeoPoint{Lat: -12.15, Lon: -45.00} // MATOPIBA region
	q := p.Offset(100, 0)
	if d := p.DistanceM(q); math.Abs(d-100) > 0.1 {
		t.Errorf("100m east offset measured as %gm", d)
	}
	q = p.Offset(0, 250)
	if d := p.DistanceM(q); math.Abs(d-250) > 0.1 {
		t.Errorf("250m north offset measured as %gm", d)
	}
	if d := p.DistanceM(p); d != 0 {
		t.Errorf("self distance %g", d)
	}
}

// Property: Offset then CellAt round-trips for points inside the grid.
func TestGridCellAtRoundTrip(t *testing.T) {
	g, err := NewFieldGrid(GeoPoint{Lat: 44.6, Lon: 10.7}, 20, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rowRaw, colRaw uint8) bool {
		row := int(rowRaw) % g.Rows
		col := int(colRaw) % g.Cols
		center := g.CellCenter(row, col)
		return g.CellAt(center) == g.CellIndex(row, col)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGridBasics(t *testing.T) {
	if _, err := NewFieldGrid(GeoPoint{}, 0, 5, 10); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewFieldGrid(GeoPoint{}, 5, 5, -1); err == nil {
		t.Error("negative cell size accepted")
	}
	g, err := NewFieldGrid(GeoPoint{Lat: 40, Lon: -1}, 4, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 20 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if got := g.AreaHa(); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("AreaHa = %g, want 5", got)
	}
	if g.CellIndex(-1, 0) != -1 || g.CellIndex(0, 5) != -1 {
		t.Error("out-of-range cell index not -1")
	}
	r, c := g.CellRC(13)
	if r != 2 || c != 3 {
		t.Errorf("CellRC(13) = (%d,%d)", r, c)
	}
	// Point outside the grid.
	if g.CellAt(GeoPoint{Lat: 41, Lon: -1}) != -1 {
		t.Error("far point mapped into grid")
	}
}

func TestGridNeighbors(t *testing.T) {
	g, _ := NewFieldGrid(GeoPoint{}, 3, 3, 10)
	center := g.CellIndex(1, 1)
	if n := g.Neighbors(center); len(n) != 4 {
		t.Errorf("center neighbors = %d, want 4", len(n))
	}
	corner := g.CellIndex(0, 0)
	if n := g.Neighbors(corner); len(n) != 2 {
		t.Errorf("corner neighbors = %d, want 2", len(n))
	}
}
