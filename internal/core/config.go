package core

import (
	"fmt"

	"github.com/swamp-project/swamp/internal/config"
)

// ParseMode maps a deployment-mode name onto its Mode constant.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "cloud-only":
		return ModeCloudOnly, nil
	case "farm-fog":
		return ModeFarmFog, nil
	case "mobile-fog":
		return ModeMobileFog, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q (have cloud-only, farm-fog, mobile-fog)", name)
}

// OptionsFromConfig resolves the configuration's scenario (pilot, mode,
// seed, sealing, backhaul) into Options and hands New the rest as
// Options.Config. The error reports an unknown pilot or mode (every other
// field was already validated by config.Validate).
func OptionsFromConfig(c *config.Config) (Options, error) {
	pilot, err := PilotByName(c.Server.Pilot)
	if err != nil {
		return Options{}, err
	}
	mode, err := ParseMode(c.Server.Mode)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Pilot: pilot, Mode: mode, Seed: c.Sim.Seed, Sealed: c.Server.Sealed,
		BackhaulLatency: c.Sim.BackhaulLatency,
		Config:          c,
	}, nil
}

// ApplyDynamic pushes the reloadable knobs of a validated candidate
// config into the running platform. It is the "swap" half of the
// validate-then-swap reload protocol: the caller has already run
// config.ValidateReload, so every change here is a dynamic field.
// Setters are individually atomic; there is no cross-knob transaction,
// which is fine — every dynamic knob is an independent tuning bound.
func (p *Platform) ApplyDynamic(c *config.Config) {
	// The whole tenant section is dynamic: quota-table edits (including
	// the admin API's PUT) and the enablement switch land here. SetLimits
	// clamps live buckets, so shrinking a quota below current usage
	// throttles immediately rather than after the old allowance drains.
	p.Admission.SetEnabled(c.Tenant.Enabled)
	p.Admission.SetLimits(c.Tenant.Limits())
	p.Admission.SetBurst(c.Tenant.Burst)
	p.Store.SetMaxAge(c.Timeseries.Retention)
	if p.Durable != nil {
		interval := c.WAL.SnapshotInterval
		if interval == 0 {
			interval = DefaultSnapshotInterval
		}
		p.Durable.WAL.SetSnapshotInterval(interval)
	}
	if p.Node != nil {
		p.Node.SetAckTimeout(c.Cluster.AckTimeout)
	}
}
