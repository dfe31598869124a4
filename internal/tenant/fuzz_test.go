package tenant

import "testing"

// FuzzParseSpec: on any spec and any base the parser does not panic, every
// quota it accepts is valid, and an accepted quota's Spec parses back to
// the same quota whatever base the second parse starts from — Spec names
// every key, so nothing is inherited. The seeds are the committed corpus
// under testdata/fuzz: the documented examples, then the edges a request
// body to PUT /admin/tenants/{id}/quota can reach.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, msgs int, bytes int64, inflight, subs, pct int) {
		base := Quota{MsgsPerSec: msgs, BytesPerSec: bytes, Inflight: inflight, Subscriptions: subs, WebhookSharePct: pct}
		q, err := ParseSpec(spec, base)
		if err != nil {
			return
		}
		if verr := q.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid quota %+v: %v", spec, q, verr)
		}
		for _, other := range []Quota{{}, base, {MsgsPerSec: -1, BytesPerSec: -1, Inflight: -1, Subscriptions: -1, WebhookSharePct: -1}} {
			back, err := ParseSpec(q.Spec(), other)
			if err != nil {
				t.Fatalf("Spec %q of accepted %q does not parse: %v", q.Spec(), spec, err)
			}
			if back != q {
				t.Fatalf("ParseSpec(%q) = %+v; its Spec %q parses to %+v over base %+v", spec, q, q.Spec(), back, other)
			}
		}
	})
}
