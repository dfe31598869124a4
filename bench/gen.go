package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"
)

// The generator is a pure function of the seed: the same seed gives the
// same probe order, arrival schedule, payload bytes and query plan, so the
// program under test receives only generated inputs and every checker can
// recompute what a reading or an answer must contain without storing it.

// Streams keep the seeded sub-generators independent of one another.
const (
	streamPerm = iota + 1
	streamWrites
	streamQueries
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// mix is a splitmix64-style hash of (seed, a, b, c): a stateless random
// source, so value(probe, depth, seq) needs no history.
func mix(seed uint64, a, b, c uint64) uint64 {
	x := seed ^ a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seqScale places the per-device sequence number in the digits below the
// probe's 0.001 m³/m³ resolution: value = thousandths/1000 + seq/1e8.
const (
	seqScale = 100_000 // sequence numbers per thousandth
	maxSeq   = seqScale - 1
)

// valueModel yields plausible volumetric moisture readings: each probe has
// its own mean in [0.220, 0.300] (d50 sits 0.050 wetter) and every reading
// sits 0.006–0.010 off it, on alternating sides. Deviations of similar size
// keep every sample within about 1.3 standard deviations of its series —
// even while the EWMA detector's variance estimate is still young — and the
// fleet within the consistency detector's consensus band, so the anomaly
// plane stays on its no-alert path; consecutive values always differ, so
// the stuck detector does too.
type valueModel struct{ seed uint64 }

// thousandths returns the j-th draw of a series in units of 0.001 m³/m³;
// lane separates live readings from preloaded history.
func (m valueModel) thousandths(probe, depth int, lane, j uint64) int64 {
	mean := 220 + int64(mix(m.seed, uint64(probe), 0, 1)%81) + 50*int64(depth)
	noise := 6 + int64(mix(m.seed, uint64(probe), uint64(depth)+lane, j)%5)
	if (j+uint64(probe))&1 == 1 {
		noise = -noise
	}
	return mean + noise
}

// units returns reading seq as an integer count of 1e-8 m³/m³.
func (m valueModel) units(probe, depth, seq int) int64 {
	return m.thousandths(probe, depth, 1, uint64(seq))*seqScale + int64(seq)
}

// history is the j-th preloaded point of a series (no sequence digits).
func (m valueModel) history(probe, depth, j int) float64 {
	return float64(m.thousandths(probe, depth, 3, uint64(j))) / 1000
}

func (m valueModel) value(probe, depth, seq int) float64 {
	return float64(m.units(probe, depth, seq)) / (1000 * seqScale)
}

// decodeUnits inverts value: it returns the integer units a float carries.
func decodeUnits(v float64) int64 { return int64(v*1000*seqScale + 0.5) }

// seqOf extracts the sequence number folded into a value.
func seqOf(v float64) int { return int(decodeUnits(v) % seqScale) }

// payload renders the UltraLight body of reading seq of a probe, both depths.
func (m valueModel) payload(buf []byte, probe, seq int) []byte {
	buf = append(buf[:0], "m1|0."...)
	buf = appendUnits(buf, m.units(probe, 0, seq))
	buf = append(buf, "|m2|0."...)
	buf = appendUnits(buf, m.units(probe, 1, seq))
	return buf
}

func appendUnits(buf []byte, u int64) []byte {
	s := strconv.FormatInt(u, 10)
	for i := len(s); i < 8; i++ {
		buf = append(buf, '0')
	}
	return append(buf, s...)
}

// Fleet naming, shared by provisioning, the generator and the checkers.
const (
	pilotName = "matopiba"
	apiKey    = "swamp-" + pilotName
	attrD20   = "soilMoisture_d20"
	attrD50   = "soilMoisture_d50"
)

var depthAttrs = [2]string{attrD20, attrD50}

func deviceID(probe int) string { return fmt.Sprintf("bench-probe-%04d", probe) }
func entityID(probe int) string { return fmt.Sprintf("urn:swamp:%s:bench:%04d", pilotName, probe) }
func attrsTopic(probe int) string {
	return "ul/" + apiKey + "/" + deviceID(probe) + "/attrs"
}

// probeOfEntity parses the probe number back out of an entity id.
func probeOfEntity(id string) (int, bool) {
	const prefix = "urn:swamp:" + pilotName + ":bench:"
	if len(id) != len(prefix)+4 || id[:len(prefix)] != prefix {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(prefix):])
	return n, err == nil
}

// fleetOrder is the seeded round-robin order readings visit the probes in.
// A strict cycle means a probe is in flight at most once while the window
// (or the open-loop backlog) stays below the fleet size, so the agent's
// batcher can never coalesce two readings of one entity.
type fleetOrder struct {
	perm []int // position → probe
	pos  []int // probe → position
}

func newFleetOrder(seed int64, probes int) fleetOrder {
	perm := newRand(seed, streamPerm).Perm(probes)
	pos := make([]int, probes)
	for i, p := range perm {
		pos[p] = i
	}
	return fleetOrder{perm: perm, pos: pos}
}

// reading k (counted from platform start) belongs to this probe and carries
// this per-device sequence number.
func (f fleetOrder) at(k int) (probe, seq int) {
	return f.perm[k%len(f.perm)], k/len(f.perm) + 1
}

// seqBelow is how many readings of the probe have an index below k, i.e. the
// probe's sequence number once the first k readings are all in.
func (f fleetOrder) seqBelow(probe, k int) int {
	n := k / len(f.perm)
	if f.pos[probe] < k%len(f.perm) {
		n++
	}
	return n
}

// index inverts at.
func (f fleetOrder) index(probe, seq int) int { return (seq-1)*len(f.perm) + f.pos[probe] }

// arrivals returns n due times in [0, span): a Poisson process conditioned
// on its count, i.e. sorted uniforms. Gaps are exponential-like, never
// fixed, so the schedule cannot phase-lock with the agent's batch ticker.
func arrivals(seed int64, stream uint64, n int, span time.Duration) []time.Duration {
	r := newRand(seed, stream)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Query kinds of the dashboard mix.
const (
	kindEntity = iota
	kindList
	kindSummary
	kindSeries
	numKinds
)

var kindNames = [numKinds]string{"entity", "list", "summary", "series"}

// kindCycle is the read mix: 4 entity GETs, 2 fleet-wide filtered listings,
// 2 summaries and 2 windowed series per ten queries. Listings are a fifth of
// the mix so the 90th percentile sits inside the listing kind, not on the
// boundary between two kinds.
var kindCycle = [10]int{
	kindEntity, kindSummary, kindEntity, kindList, kindSeries,
	kindEntity, kindSummary, kindEntity, kindList, kindSeries,
}

type query struct {
	kind   int
	probe  int
	depth  int
	thresh int64 // listing filter, in thousandths
	offset int   // listing page offset
}

// path renders the request path of a query.
func (q query) path() string {
	switch q.kind {
	case kindEntity:
		return "/v2/entities/" + entityID(q.probe)
	case kindList:
		return fmt.Sprintf("/v2/entities?type=SoilProbe&q=%s%%3E0.%03d&limit=100&offset=%d&options=count",
			attrD20, q.thresh, q.offset)
	case kindSummary:
		return "/v2/analytics/" + deviceID(q.probe) + "/" + depthAttrs[q.depth] + "?hours=24"
	default:
		return "/v2/analytics/" + deviceID(q.probe) + "/" + depthAttrs[q.depth] + "/series?hours=24&window=1h"
	}
}

// queryPlan returns the i-th query of the seeded plan. Listing thresholds
// span the fleet's value range and offsets walk its pages, so request keys
// rarely repeat and the listing cache sees the writes' epoch bumps.
func queryPlan(seed int64, probes, i int) query {
	h := mix(uint64(seed), streamQueries, uint64(i), 7)
	q := query{kind: kindCycle[i%len(kindCycle)], probe: int(h % uint64(probes)), depth: int(h >> 32 & 1)}
	if q.kind == kindList {
		q.thresh = 215 + int64(h>>8%91) // 0.215 … 0.305
		q.offset = 100 * int(h>>20%uint64(probes/100+1))
	}
	return q
}
