package sensor

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/soil"
)

func testField(t *testing.T) *soil.Field {
	t.Helper()
	grid, err := model.NewFieldGrid(model.GeoPoint{Lat: -12, Lon: -45}, 8, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	f, err := soil.NewHeterogeneousField(grid, soil.CropSoybean, soil.ProfileSandyLoam, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func probeDesc(id string) model.Descriptor {
	return model.Descriptor{
		ID: model.DeviceID(id), Kind: model.KindSoilProbe, Owner: "farm",
		Depths: []float64{0.2, 0.5}, APIKey: "k",
	}
}

func TestSoilProbeSample(t *testing.T) {
	f := testField(t)
	p, err := NewSoilProbe(probeDesc("p1"), f, 10, 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.Sample(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("readings = %d, want 2 depths", len(rs))
	}
	truth := f.Cells[10].Moisture()
	for _, r := range rs {
		if r.Quantity != model.QSoilMoisture || r.Device != "p1" {
			t.Errorf("reading %+v", r)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("invalid reading: %v", err)
		}
		if math.Abs(r.Value-truth) > 0.08 {
			t.Errorf("depth %g reads %g, truth %g", r.Depth, r.Value, truth)
		}
	}
}

func TestSoilProbeNoiseAndBias(t *testing.T) {
	f := testField(t)
	p, _ := NewSoilProbe(probeDesc("p1"), f, 0, 0.01, 2)
	p.Bias = 0.05
	truth := f.Cells[0].Moisture()
	var sum float64
	const n = 200
	for i := 0; i < n; i++ {
		rs, _ := p.Sample(time.Now())
		sum += rs[0].Value
	}
	mean := sum / n
	if math.Abs(mean-(truth+0.05)) > 0.01 {
		t.Errorf("biased mean %g, want ~%g", mean, truth+0.05)
	}
}

func TestSoilProbeValidation(t *testing.T) {
	f := testField(t)
	if _, err := NewSoilProbe(probeDesc("p"), f, 999, 0.01, 1); err == nil {
		t.Error("out-of-field cell accepted")
	}
	bad := probeDesc("p")
	bad.Kind = model.KindDrone
	if _, err := NewSoilProbe(bad, f, 0, 0.01, 1); err == nil {
		t.Error("wrong kind accepted")
	}
	if _, err := NewSoilProbe(probeDesc("p"), f, 0, -1, 1); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestManyProbesOverField(t *testing.T) {
	f := testField(t)
	for i := 0; i < 16; i++ {
		p, err := NewSoilProbe(probeDesc(fmt.Sprintf("p%d", i)), f, i*4, 0.004, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := p.Sample(time.Now())
		if err != nil || len(rs) != 2 {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
}
