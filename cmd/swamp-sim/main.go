// Command swamp-sim runs a full pilot season through the real platform
// pipeline, or the derived experiment suite (every table, printed).
// Performance numbers come from bench/ (end to end and per layer) and from
// `go test -bench` at the repository root, not from here; the durability,
// cluster and admission invariants are go tests in the packages that own
// them.
//
// Usage:
//
//	swamp-sim -pilot matopiba -mode farm-fog        # one season
//	swamp-sim -experiments                          # all experiment tables
//
// Platform knobs (-pilot, -mode, -sealed, -seed, -wal-dir, ...) come from
// the shared config schema (internal/config), so swampd and swamp-sim
// accept identical spellings and SWAMP_* environment variables work here
// too.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/core"
)

func main() {
	experiments := flag.Bool("experiments", false, "run the full experiment suite instead of a season")
	overlay := config.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Platform knobs resolve through the shared layered loader, so
	// -wal-dir / SWAMP_SERVER_PILOT / etc. mean the same thing here as in
	// swampd.
	cfg, _, err := (&config.Loader{Flags: overlay}).Load()
	if err == nil {
		if *experiments {
			err = core.WriteExperiments(os.Stdout, true)
		} else {
			err = runSeason(cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swamp-sim:", err)
		os.Exit(1)
	}
}

func runSeason(cfg *config.Config) error {
	opts, err := core.OptionsFromConfig(cfg)
	if err != nil {
		return err
	}
	p, err := core.New(opts)
	if err != nil {
		return err
	}
	defer p.Close()

	fmt.Printf("running %s season (%d days) in %s mode, sealed=%v ...\n",
		opts.Pilot.Name, opts.Pilot.Crop.SeasonDays(), opts.Mode, opts.Sealed)
	start := time.Now()
	rep, err := p.RunSeason(core.SeasonHooks{})
	if err != nil {
		return err
	}
	fmt.Printf("simulated in %v\n\n%s", time.Since(start).Round(time.Millisecond), rep)
	return nil
}
