package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestExperimentsGolden pins every experiment table (EXP-A1's wall-clock
// columns masked) and the season report of every pilot in every mode.
// They are functions of the seeds alone; a change that moves one is either
// a fix to say so of, or a bug. Rewrite the file with -update.
func TestExperimentsGolden(t *testing.T) {
	var got bytes.Buffer
	if err := WriteExperiments(&got, false); err != nil {
		t.Fatal(err)
	}
	for _, pilot := range Pilots() {
		for _, mode := range []Mode{ModeCloudOnly, ModeFarmFog, ModeMobileFog} {
			p := newPlatform(t, pilot, mode, false)
			rep, err := p.RunSeason(SeasonHooks{})
			if err != nil {
				t.Fatalf("%s/%v: %v", pilot.Name, mode, err)
			}
			p.Close()
			fmt.Fprintf(&got, "\n== season %s/%v ==\n%s", pilot.Name, mode, rep)
		}
	}

	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s:%d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
