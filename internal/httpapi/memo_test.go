package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swamp-project/swamp/internal/ngsi"
)

// churnVersion is version seq of entity id as the churn writers publish
// it: every attribute is a function of (id, seq), so a body that names
// its seq can be checked against a fresh encoding of that version.
func churnVersion(id string, seq int) *ngsi.Entity {
	at := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second)
	return &ngsi.Entity{ID: id, Type: "SoilProbe", Attrs: map[string]ngsi.Attribute{
		"seq":          {Type: "Number", Value: seq, At: at},
		"soilMoisture": {Type: "Number", Value: float64(seq%97) / 100, Metadata: map[string]string{"device": id + "<&>"}, At: at},
		"note":         {Type: "Text", Value: fmt.Sprintf("v%d of %s", seq, id), At: at},
	}}
}

// checkChurnBody holds one entity's bytes to json.Marshal of the version
// its seq attribute names, and that version to no older than floor, the
// entity's version the writers had published before the request was sent.
func checkChurnBody(t *testing.T, raw []byte, floor func(id string) int) {
	t.Helper()
	var doc struct {
		ID    string `json:"id"`
		Attrs struct {
			Seq struct {
				Value int `json:"value"`
			} `json:"seq"`
		} `json:"attrs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Errorf("body %s: %v", raw, err)
		return
	}
	want, err := json.Marshal(churnVersion(doc.ID, doc.Attrs.Seq.Value))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("body of %s version %d:\n got %s\nwant %s", doc.ID, doc.Attrs.Seq.Value, raw, want)
	}
	if min := floor(doc.ID); doc.Attrs.Seq.Value < min {
		t.Errorf("%s served version %d after version %d was published", doc.ID, doc.Attrs.Seq.Value, min)
	}
}

// TestMemoChurnBodiesMatchVersions: writers publish new versions while
// readers list and GET the same entities. Every entity in every body is
// byte for byte a fresh encoding/json encoding of the version it names —
// a memo is never served for a version other than its own, and a memo
// filled concurrently by two readers is whole — and no version is older
// than the one published before the request. Run it under -race.
func TestMemoChurnBodiesMatchVersions(t *testing.T) {
	f := newFixture(t)
	tok := f.token(t, "farmer")
	const entities, reads = 20, 200
	id := func(i int) string { return "urn:farm1:churn" + strconv.Itoa(100+i) }
	var published [entities]atomic.Int64 // last seq each entity's writer saw acknowledged
	snapshot := func() func(id string) int {
		var seqs [entities]int
		for i := range seqs {
			seqs[i] = int(published[i].Load())
		}
		return func(s string) int {
			i, _ := strconv.Atoi(strings.TrimPrefix(s, "urn:farm1:churn"))
			return seqs[i-100]
		}
	}
	for i := range entities {
		if err := f.ctx.UpsertEntity(churnVersion(id(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for seq := 1; ; seq++ {
				for i := w; i < entities; i += 2 {
					select {
					case <-stop:
						return
					default:
					}
					if err := f.ctx.UpdateAttrs(id(i), "SoilProbe", churnVersion(id(i), seq).Attrs); err != nil {
						t.Error(err)
						return
					}
					published[i].Store(int64(seq))
				}
			}
		}()
	}
	get := func(path string) []byte {
		resp := f.do(t, http.MethodGet, path, tok, nil)
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	var readers sync.WaitGroup
	for r := range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := range reads {
				floor := snapshot()
				if r == 0 {
					var page []json.RawMessage
					if err := json.Unmarshal(get("/v2/entities?idPattern=urn:farm1:churn*"), &page); err != nil || len(page) != entities {
						t.Errorf("listing: %d entities, %v", len(page), err)
						return
					}
					for _, raw := range page {
						checkChurnBody(t, raw, floor)
					}
					continue
				}
				body := get("/v2/entities/" + id(n%entities))
				checkChurnBody(t, bytes.TrimSuffix(body, []byte("\n")), floor)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
