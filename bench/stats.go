package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// errThinTail is returned when a percentile has fewer than ten samples
// beyond it: such a value is one slow operation, not a property of the run.
var errThinTail = errors.New("fewer than ten samples beyond the percentile")

// sample is a latency sample set. Failed operations are kept as +Inf so
// they stay in every percentile's denominator: a run that loses readings
// cannot report a better tail for it.
type sample struct {
	vals   []float64
	sorted bool
}

func (s *sample) add(v float64) { s.vals = append(s.vals, v); s.sorted = false }
func (s *sample) fail()         { s.add(math.Inf(1)) }
func (s *sample) n() int        { return len(s.vals) }

// percentile returns the p-th percentile (nearest rank), refusing one with
// fewer than ten samples beyond it.
func (s *sample) percentile(p float64) (float64, error) {
	n := len(s.vals)
	if n == 0 {
		return 0, errors.New("no samples")
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", p, n, errThinTail)
	}
	return s.vals[rank-1], nil
}

// timed is a latency sample set that remembers when each operation ended
// (seconds since its phase began), so the phase can be cut into slices.
type timed struct {
	at, val []float64
}

func (t *timed) add(at, v float64) { t.at = append(t.at, at); t.val = append(t.val, v) }
func (t *timed) fail(at float64)   { t.add(at, math.Inf(1)) }
func (t *timed) n() int            { return len(t.val) }

// between returns the operations that ended in [lo, hi) seconds.
func (t *timed) between(lo, hi float64) *sample {
	s := &sample{}
	for i, at := range t.at {
		if at >= lo && at < hi {
			s.vals = append(s.vals, t.val[i])
		}
	}
	return s
}

func (t *timed) all() *sample { return &sample{vals: append([]float64(nil), t.val...)} }

// median of a small set (slice rates, repeated set-up times); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance check of this benchmark is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// sliceBounds cuts [0, span) into slices of sliceLen seconds and returns,
// for each, the indexes of the first sample at or after its start and of the
// first at or after its end. A slice the samples do not cover is left out.
// Reporting the median slice keeps one stalled slice (a GC cycle, a slow
// fsync burst) from moving the result.
func sliceBounds(at []float64, span, sliceLen float64) [][2]int {
	n := int(span/sliceLen + 1e-9)
	if n < 1 {
		n, sliceLen = 1, span
	}
	atOrAfter := func(t float64) int { return sort.SearchFloat64s(at, t) }
	var out [][2]int
	for j := 0; j < n; j++ {
		lo, hi := atOrAfter(float64(j)*sliceLen), atOrAfter(float64(j+1)*sliceLen)
		if hi == len(at) || at[hi] <= at[lo] {
			continue
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// tally counts operations and the ones that failed.
type tally struct{ attempted, failed int }
