package anomaly

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// ConsistencyConfig tunes the cross-sensor consistency detector.
type ConsistencyConfig struct {
	// MinPeers is the minimum number of other sensors of the same quantity
	// needed before judging (default 4). Below that, the "partial view"
	// problem the paper warns about makes cross-checking unreliable.
	MinPeers int
	// K is the robust z-score (MAD-based) alarm threshold (default 5).
	K float64
	// MinSpread floors the robust scale estimate. With few peers the MAD
	// is an unstable estimator and can collapse toward zero by chance,
	// exploding the z-score; set MinSpread to the known sensor noise scale
	// (e.g. 0.008 m³/m³ for soil probes) to bound false positives.
	MinSpread float64
	// Cooldown suppresses repeated alerts per device (default 1m).
	Cooldown time.Duration
}

func (c *ConsistencyConfig) defaults() {
	if c.MinPeers <= 0 {
		c.MinPeers = 4
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
}

// ConsistencyDetector cross-checks each sensor against the population of
// sensors measuring the same quantity in the same deployment: a reading far
// from the robust consensus (median ± K·MAD) is flagged. This catches the
// §III value-tampering attack even when the attacker keeps the series
// internally smooth (defeating the per-series EWMA baseline).
//
// Each quantity's population is kept in ascending order, so a value costs
// O(log N) comparisons and one copy per slice edit instead of sorting the
// fleet, and the statistics stay exact: the median is read by index and the
// MAD by rank selection over the ordered values either side of it.
type ConsistencyDetector struct {
	cfg ConsistencyConfig

	mu        sync.Mutex
	latest    map[string]*population // by quantity
	lastAlert map[string]time.Time
}

// population is the last value of every device reporting one quantity;
// sorted holds exactly the values of byDev, ascending under less.
type population struct {
	byDev  map[string]float64
	sorted []float64
}

// NewConsistencyDetector builds a detector.
func NewConsistencyDetector(cfg ConsistencyConfig) *ConsistencyDetector {
	cfg.defaults()
	return &ConsistencyDetector{
		cfg:       cfg,
		latest:    make(map[string]*population),
		lastAlert: make(map[string]time.Time),
	}
}

// Observe feeds one (device, quantity, value) sample. A non-finite value is
// ignored: NaN has no place in an ordered population.
func (d *ConsistencyDetector) Observe(device, quantity string, v float64, at time.Time) *Alert {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pop := d.latest[quantity]
	if pop == nil {
		pop = &population{byDev: make(map[string]float64)}
		d.latest[quantity] = pop
	}
	// The peers are every other device: take this one's previous value out,
	// read the consensus of what remains, then put the new value in.
	if old, ok := pop.byDev[device]; ok {
		pop.remove(old)
	}
	peers := len(pop.sorted)
	var med, mad float64
	if peers >= d.cfg.MinPeers {
		med, mad = medianAndMAD(pop.sorted)
	}
	pop.byDev[device] = v
	pop.insert(v)
	if peers < d.cfg.MinPeers {
		return nil
	}
	// 1.4826·MAD ≈ σ for normal data; floor it per config.
	spread := 1.4826 * mad
	if spread < d.cfg.MinSpread {
		spread = d.cfg.MinSpread
	}
	if spread < 1e-9 {
		spread = 1e-9
	}
	z := math.Abs(v-med) / spread
	if z <= d.cfg.K {
		return nil
	}
	if at.Sub(d.lastAlert[device]) < d.cfg.Cooldown {
		return nil
	}
	d.lastAlert[device] = at
	return &Alert{
		At: at, Kind: "consistency", Device: device, Score: z,
		Detail: fmt.Sprintf("%s=%.4g vs consensus %.4g (spread %.4g, %d peers)",
			quantity, v, med, spread, peers),
	}
}

// PeerCount returns how many devices currently report quantity.
func (d *ConsistencyDetector) PeerCount(quantity string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pop := d.latest[quantity]; pop != nil {
		return len(pop.byDev)
	}
	return 0
}

// less orders finite values ascending with -0 before +0, so that equal
// values are bit-identical and the consensus does not depend on the order
// in which a +0 and a -0 arrived.
func less(a, b float64) bool {
	return a < b || (a == b && math.Signbit(a) && !math.Signbit(b))
}

// search returns the first index whose value is not less than v.
func (p *population) search(v float64) int {
	return sort.Search(len(p.sorted), func(i int) bool { return !less(p.sorted[i], v) })
}

func (p *population) insert(v float64) {
	p.sorted = slices.Insert(p.sorted, p.search(v), v)
}

// remove deletes one occurrence of v, which must be present.
func (p *population) remove(v float64) {
	i := p.search(v)
	p.sorted = slices.Delete(p.sorted, i, i+1)
}

// medianAndMAD returns the median of s (ascending, not empty) and the median
// of the absolute deviations from it, each the middle value or the mean of
// the two middle values.
//
// Deviations need no sort of their own. With h = len(s)/2, every value below
// index h is at most the median and every value from h on is at least the
// median, so |s[i]-med| ascends walking left from h-1 and walking right from
// h. The h smallest deviations are therefore a window s[h-i : h-i+h] that
// takes i values from the left run and h-i from the right, and the binary
// search below finds the i at which the two runs interleave.
func medianAndMAD(s []float64) (med, mad float64) {
	n := len(s)
	h := n / 2
	if n%2 == 1 {
		med = s[h]
	} else {
		med = (s[h-1] + s[h]) / 2
	}
	left := func(i int) float64 { return math.Abs(s[h-1-i] - med) } // i in [0, h)
	right := func(j int) float64 { return math.Abs(s[h+j] - med) }  // j in [0, n-h)
	// The smallest i whose left deviation is not below the last right
	// deviation the window takes: the h smallest are left[:i] and right[:h-i].
	lo, hi := 0, h
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if right(h-i-1) <= left(i) {
			hi = i
		} else {
			lo = i + 1
		}
	}
	i, j := lo, h-lo
	// The next deviation up is rank h (0-based) of all n: the middle one when
	// n is odd, the upper middle when n is even.
	upper := math.Inf(1)
	if i < h {
		upper = left(i)
	}
	if j < n-h && right(j) < upper {
		upper = right(j)
	}
	if n%2 == 1 {
		return med, upper
	}
	lower := 0.0
	if i > 0 {
		lower = left(i - 1)
	}
	if j > 0 && right(j-1) > lower {
		lower = right(j - 1)
	}
	return med, (lower + upper) / 2
}
