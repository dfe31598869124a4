package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// A query's answer is bracketed per probe. From below by the readings that
// have settled — published at least the operation timeout before the request
// was issued, which by the benchmark's own failure rule the platform must
// show. From above by the last sequence number handed to the wire when the
// response arrived. The platform may show any reading in between, and
// nothing else.

// sentSnapshot copies the per-probe "last sequence sent" counters.
func (fx *fixture) sentSnapshot() []int32 {
	out := make([]int32, len(fx.sentSeq))
	for i := range fx.sentSeq {
		out[i] = fx.sentSeq[i].Load()
	}
	return out
}

// doQuery issues one northbound query with the bearer token (OAuth + PEP on
// every request) and validates the answer against the generator's model.
func (fx *fixture) doQuery(q query) error {
	settled := fx.cur.Load().settledK(time.Now())
	req, err := http.NewRequest(http.MethodGet, fx.baseURL+q.path(), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+fx.token)
	resp, err := fx.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	if q.kind == kindList {
		return fx.checkList(q, resp.Header.Get("Fiware-Total-Count"), body, settled, fx.sentSnapshot())
	}
	lo, hi := fx.order.seqBelow(q.probe, settled), int(fx.sentSeq[q.probe].Load())
	switch q.kind {
	case kindEntity:
		return fx.checkEntity(q, body, lo, hi)
	case kindSummary:
		return fx.checkSummary(body, lo, hi)
	default:
		return fx.checkSeries(body, lo, hi)
	}
}

// checkEntity: the entity shows one reading of the probe, whole (both
// depths from the same sequence number) and within the bracket.
func (fx *fixture) checkEntity(q query, body []byte, lo, hi int) error {
	var e entityDoc
	if err := json.Unmarshal(body, &e); err != nil {
		return err
	}
	probe, seq, err := fx.reading(e)
	if err != nil {
		return err
	}
	if probe != q.probe || seq < lo || seq > hi {
		return fmt.Errorf("entity %s shows seq %d, sent %d..%d", e.ID, seq, lo, hi)
	}
	return nil
}

// maxBracket caps how many candidate readings per probe the listing check
// enumerates; a wider bracket counts the probe as "may or may not match".
const maxBracket = 16

// checkList: the page is sorted, every entity on it is a genuine bracketed
// reading that satisfies the filter, the page length follows from the count
// header, and the count lies between the fewest and the most probes the
// bracketed readings could put above the threshold.
func (fx *fixture) checkList(q query, countHeader string, body []byte, settled int, sent []int32) error {
	total, err := strconv.Atoi(countHeader)
	if err != nil {
		return fmt.Errorf("Fiware-Total-Count %q", countHeader)
	}
	var page []entityDoc
	if err := json.Unmarshal(body, &page); err != nil {
		return err
	}
	want := total - q.offset
	if want < 0 {
		want = 0
	}
	if want > 100 {
		want = 100
	}
	if len(page) != want {
		return fmt.Errorf("page of %d entities, count %d offset %d wants %d", len(page), total, q.offset, want)
	}
	bar := q.thresh * seqScale
	for i, e := range page {
		if i > 0 && page[i-1].ID >= e.ID {
			return fmt.Errorf("page not sorted by id at %d", i)
		}
		probe, seq, err := fx.reading(e)
		if err != nil {
			return err
		}
		if seq < fx.order.seqBelow(probe, settled) || seq > int(sent[probe]) {
			return fmt.Errorf("%s shows seq %d, sent %d..%d", e.ID, seq, fx.order.seqBelow(probe, settled), sent[probe])
		}
		if decodeUnits(e.Attrs[attrD20].Value) <= bar {
			return fmt.Errorf("%s fails the filter > 0.%03d", e.ID, q.thresh)
		}
	}
	lo, hi := 0, 0
	for probe := range sent {
		from, to := fx.order.seqBelow(probe, settled), int(sent[probe])
		all, any := from >= 1, false
		if to-from > maxBracket {
			all, any = false, true
		} else {
			for seq := max(from, 1); seq <= to; seq++ {
				if fx.model.units(probe, 0, seq) > bar {
					any = true
				} else {
					all = false
				}
			}
		}
		if all {
			lo++
		}
		if any {
			hi++
		}
	}
	if total < lo || total > hi {
		return fmt.Errorf("count %d for > 0.%03d, generator allows %d..%d", total, q.thresh, lo, hi)
	}
	return nil
}

type aggDoc struct {
	Count          int
	Min, Max, Mean float64
}

func checkAgg(a aggDoc) error {
	if a.Count > 0 && !(0.15 < a.Min && a.Min <= a.Mean && a.Mean <= a.Max && a.Max < 0.45) {
		return fmt.Errorf("aggregate out of the model's range: %+v", a)
	}
	return nil
}

// checkSummary: the series holds its history plus one point per reading
// stored so far.
func (fx *fixture) checkSummary(body []byte, lo, hi int) error {
	var a aggDoc
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if a.Count < historyPoints+lo || a.Count > historyPoints+hi {
		return fmt.Errorf("summary count %d, want %d..%d", a.Count, historyPoints+lo, historyPoints+hi)
	}
	return checkAgg(a)
}

// checkSeries: hourly windows in time order that together hold the same
// number of points the summary would.
func (fx *fixture) checkSeries(body []byte, lo, hi int) error {
	var doc struct {
		Points []struct {
			At time.Time
			aggDoc
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	n := 0
	for i, w := range doc.Points {
		if i > 0 && !w.At.After(doc.Points[i-1].At) {
			return fmt.Errorf("series windows out of order at %d", i)
		}
		if err := checkAgg(w.aggDoc); err != nil {
			return err
		}
		n += w.Count
	}
	if n < historyPoints+lo || n > historyPoints+hi {
		return fmt.Errorf("series holds %d points, want %d..%d", n, historyPoints+lo, historyPoints+hi)
	}
	return nil
}
