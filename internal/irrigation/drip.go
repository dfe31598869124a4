package irrigation

import (
	"math"

	"github.com/swamp-project/swamp/internal/soil"
)

// DripScheduler is the threshold-refill controller used by the drip pilots
// (Intercrop vegetables, Guaspari vines): irrigate a zone when its
// depletion passes the trigger, refill toward the target.
type DripScheduler struct {
	Config PlannerConfig
}

// NewDripScheduler builds a scheduler.
func NewDripScheduler(cfg PlannerConfig) *DripScheduler {
	cfg.defaults()
	return &DripScheduler{Config: cfg}
}

// Plan returns today's application depth (mm) for one zone.
func (d *DripScheduler) Plan(b *soil.Balance) float64 {
	return d.Config.Depth(b.Depletion(), b.RAW())
}

// StageOf returns the FAO crop stage (0 initial, 1 development, 2 mid,
// 3 late) a season day falls in; days past the season count as late.
func StageOf(crop soil.Crop, day int) int {
	d := day
	for i := 0; i < 4; i++ {
		if d < crop.StageDays[i] {
			return i
		}
		d -= crop.StageDays[i]
	}
	return 3
}

// WineQualityIndex scores a finished Guaspari season: moderate stress in
// mid/late season raises quality; severe stress or no stress lowers it.
// The shape follows the RDI literature (quality peaks at mild deficit).
//
// The index combines: water saved (deficit) and yield retention.
func WineQualityIndex(b *soil.Balance) float64 {
	tot := b.Totals()
	if tot.ETc <= 0 {
		return 0
	}
	// Deficit severity: stress-day fraction over the season.
	season := float64(b.Crop().SeasonDays())
	stress := tot.StressDays / season
	// Quality peaks around 10-20% cumulative mild stress.
	const peak = 0.15
	quality := 1 - 2.2*math.Abs(stress-peak)
	return math.Max(0, math.Min(1, quality))
}
