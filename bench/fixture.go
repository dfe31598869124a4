package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/agent"
	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/httpapi"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/model"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/tenant"
	"github.com/swamp-project/swamp/internal/timeseries"
)

// historyPoints is the preloaded depth of every series: one sealed
// 512-point chunk plus a head, at one-minute spacing ending at set-up time.
const historyPoints = 600

// fixture is one wired platform with the harness attached from outside:
// the platform exactly as cmd/swampd builds it (core.New, the broker on a
// loopback TCP listener, httpapi.NewServer on another), a probe fleet of the
// harness's own, one MQTT connection, one keep-alive HTTP connection, and
// the webhook sink the platform POSTs to.
type fixture struct {
	w     workload
	seed  int64
	model valueModel
	order fleetOrder

	walDir string
	p      *core.Platform
	reg    *metrics.Registry
	api    *httpapi.Server

	mqttLn, httpLn, sinkLn net.Listener
	httpSrv, sinkSrv       *http.Server

	mq      *mqttClient
	hc      *http.Client
	baseURL string
	token   string

	topics     []string
	subscribed []bool // per probe: does the webhook subscription match it
	// sentSeq[probe] is the last sequence number handed to the wire: the
	// reader's checks bracket what an answer may contain with it.
	sentSeq []atomic.Int32
	// pidK maps an in-flight MQTT packet id to reading index + 1.
	pidK [1 << 16]atomic.Int64

	nextK int          // next reading index, counted from platform start (writer-owned)
	nextQ atomic.Int64 // next query of the seeded plan

	cur atomic.Pointer[phase]
	// strayPosts counts webhook deliveries that match no expected reading:
	// duplicates, wrong values, unsubscribed probes.
	strayPosts atomic.Int64
	strayAcks  atomic.Int64

	closed bool
}

// newFixture builds, preloads, provisions, connects and subscribes. dir is
// the run's scratch directory; the WAL lives beneath it when the workload
// journals.
func newFixture(w workload, seed int64, dir string) (fx *fixture, err error) {
	fx = &fixture{
		w: w, seed: seed,
		model:      valueModel{seed: uint64(seed)},
		order:      newFleetOrder(seed, w.probes),
		sentSeq:    make([]atomic.Int32, w.probes),
		topics:     make([]string, w.probes),
		subscribed: make([]bool, w.probes),
	}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()

	cfg := config.Default()
	cfg.Sim.Seed = seed
	if cfg.Sim.Seed == 0 {
		cfg.Sim.Seed = 1
	}
	cfg.WAL.SnapshotInterval = -1 // no timer-triggered snapshot mid-phase
	if w.wal {
		fx.walDir, err = os.MkdirTemp(dir, "wal-")
		if err != nil {
			return fx, err
		}
		cfg.WAL.Dir = fx.walDir
	}
	opts, err := core.OptionsFromConfig(cfg)
	if err != nil {
		return fx, err
	}
	fx.reg = metrics.NewRegistry()
	opts.Metrics = fx.reg
	if fx.p, err = core.New(opts); err != nil {
		return fx, fmt.Errorf("core.New: %w", err)
	}

	if fx.mqttLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return fx, err
	}
	go func() { _ = fx.p.Broker.Serve(fx.mqttLn) }() // returns when close() closes the listener

	fx.api, err = httpapi.NewServer(httpapi.Config{
		Context: fx.p.Context, Tokens: fx.p.Tokens, PEP: fx.p.PEP,
		Analytics: fx.p.Analytics, Metrics: fx.reg,
		Webhooks: fx.p.Webhooks, Admission: fx.p.Admission,
		QueryMaxLimit: cfg.HTTP.QueryCap,
	})
	if err != nil {
		return fx, err
	}
	if fx.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return fx, err
	}
	fx.httpSrv = &http.Server{Handler: fx.api}
	go func() { _ = fx.httpSrv.Serve(fx.httpLn) }() // returns on httpSrv.Close
	fx.baseURL = "http://" + fx.httpLn.Addr().String()

	if fx.sinkLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return fx, err
	}
	fx.sinkSrv = &http.Server{Handler: http.HandlerFunc(fx.handleNotify)}
	go func() { _ = fx.sinkSrv.Serve(fx.sinkLn) }() // returns on sinkSrv.Close

	if err = fx.preloadHistory(); err != nil {
		return fx, err
	}
	if err = fx.provision(); err != nil {
		return fx, err
	}

	if fx.mq, err = dialMQTT(fx.mqttLn.Addr().String(), "bench"); err != nil {
		return fx, err
	}
	go fx.mq.readAcks(fx.onAck) // exits when mq.close closes the connection

	fx.hc = &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: readers, MaxIdleConnsPerHost: readers, DisableCompression: true,
		},
	}
	if err = fx.fetchToken(); err != nil {
		return fx, err
	}
	if err = fx.subscribeWebhook(); err != nil {
		return fx, err
	}
	return fx, nil
}

// preloadHistory appends historyPoints per series through the (journaled)
// store, the way a restarted deployment would already hold a day's data.
func (fx *fixture) preloadHistory() error {
	end := time.Now().Truncate(time.Second).Add(-time.Second)
	const probesPerBatch = 10
	batch := make([]timeseries.BatchPoint, 0, probesPerBatch*2*historyPoints)
	flush := func() error {
		accepted, rejected, err := fx.p.Store.AppendBatch(batch)
		if err != nil || rejected > 0 || accepted != len(batch) {
			return fmt.Errorf("history preload: accepted %d of %d, rejected %d: %v", accepted, len(batch), rejected, err)
		}
		batch = batch[:0]
		return nil
	}
	for probe := 0; probe < fx.w.probes; probe++ {
		for depth, attr := range depthAttrs {
			key := timeseries.SeriesKey{Device: deviceID(probe), Quantity: attr}
			for j := 0; j < historyPoints; j++ {
				batch = append(batch, timeseries.BatchPoint{Key: key, Point: timeseries.Point{
					At:    end.Add(-time.Duration(historyPoints-1-j) * time.Minute),
					Value: fx.model.history(probe, depth, j),
				}})
			}
		}
		if (probe+1)%probesPerBatch == 0 || probe == fx.w.probes-1 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// provision registers the bench fleet with the IoT agent: two depths per
// probe, the same dictionary the pilot's own probes use.
func (fx *fixture) provision() error {
	for probe := 0; probe < fx.w.probes; probe++ {
		fx.topics[probe] = attrsTopic(probe)
		fx.subscribed[probe] = ngsi.MatchIDPattern(fx.w.webhookPattern, entityID(probe))
		err := fx.p.Agent.Provision(agent.Provision{
			Desc: model.Descriptor{
				ID: model.DeviceID(deviceID(probe)), Kind: model.KindSoilProbe,
				Owner: tenant.ID(pilotName), Depths: []float64{0.2, 0.5}, APIKey: apiKey,
			},
			EntityID:   entityID(probe),
			EntityType: "SoilProbe",
			AttrMap: map[string]agent.AttrSpec{
				"m1": {Quantity: model.QSoilMoisture, Depth: 0.2},
				"m2": {Quantity: model.QSoilMoisture, Depth: 0.5},
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (fx *fixture) fetchToken() error {
	form := url.Values{
		"grant_type": {"client_credentials"}, "client_id": {"svc-irrigation"}, "client_secret": {"svc-secret"},
	}
	resp, err := fx.hc.Post(fx.baseURL+"/oauth/token", "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
	if err != nil {
		return fmt.Errorf("token: %w", err)
	}
	defer resp.Body.Close()
	var tok struct {
		AccessToken string `json:"access_token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tok); err != nil || resp.StatusCode != http.StatusOK || tok.AccessToken == "" {
		return fmt.Errorf("token: status %d: %v", resp.StatusCode, err)
	}
	fx.token = tok.AccessToken
	return nil
}

func (fx *fixture) subscribeWebhook() error {
	body := fmt.Sprintf(`{"subject":{"entities":[{"idPattern":%q,"type":"SoilProbe"}]},"notification":{"http":{"url":"http://%s/notify"}}}`,
		fx.w.webhookPattern, fx.sinkLn.Addr())
	req, err := http.NewRequest(http.MethodPost, fx.baseURL+"/v2/subscriptions", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+fx.token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := fx.hc.Do(req)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	return nil
}

// onAck runs on the PUBACK reader.
func (fx *fixture) onAck(pid uint16, at time.Time) {
	k := fx.pidK[pid].Swap(0) - 1
	var rec *readingRec
	ph := fx.cur.Load()
	if k >= 0 && ph != nil {
		rec = ph.rec(int(k))
	}
	if rec == nil || !rec.puback.CompareAndSwap(0, ph.ns(at)) {
		fx.strayAcks.Add(1)
		return
	}
	ph.acked.Add(1)
}

// notifyDoc is the part of an NGSI notification the sink checks.
type notifyDoc struct {
	Data []entityDoc `json:"data"`
}

type entityDoc struct {
	ID    string `json:"id"`
	Type  string `json:"type"`
	Attrs map[string]struct {
		Value float64 `json:"value"`
	} `json:"attrs"`
}

// reading identifies which reading of the probe an entity document shows,
// checking that both depths carry exactly the generator's values for it.
func (fx *fixture) reading(e entityDoc) (probe, seq int, err error) {
	probe, ok := probeOfEntity(e.ID)
	if !ok || probe >= fx.w.probes || e.Type != "SoilProbe" {
		return 0, 0, fmt.Errorf("unexpected entity %q (%s)", e.ID, e.Type)
	}
	seq = seqOf(e.Attrs[attrD20].Value)
	for depth, attr := range depthAttrs {
		if got, want := decodeUnits(e.Attrs[attr].Value), fx.model.units(probe, depth, seq); got != want {
			return 0, 0, fmt.Errorf("%s.%s = %d units, generator sent %d for seq %d", e.ID, attr, got, want, seq)
		}
	}
	return probe, seq, nil
}

// handleNotify is the webhook sink: it stamps the arrival, identifies the
// reading and marks it delivered exactly once.
func (fx *fixture) handleNotify(w http.ResponseWriter, r *http.Request) {
	at := time.Now()
	var doc notifyDoc
	err := json.NewDecoder(r.Body).Decode(&doc)
	w.WriteHeader(http.StatusNoContent)
	ph := fx.cur.Load()
	if err != nil || len(doc.Data) != 1 || ph == nil {
		fx.strayPosts.Add(1)
		return
	}
	probe, seq, err := fx.reading(doc.Data[0])
	if err != nil || !fx.subscribed[probe] {
		fx.strayPosts.Add(1)
		return
	}
	rec := ph.rec(fx.order.index(probe, seq))
	if rec == nil || !rec.posted.CompareAndSwap(0, ph.ns(at)) {
		fx.strayPosts.Add(1)
		return
	}
	ph.posts.Add(1)
}

// close tears everything down and waits for it: clients first, then the
// listeners, then the platform (which drains its own queues), then the WAL
// directory.
func (fx *fixture) close() {
	if fx.closed {
		return
	}
	fx.closed = true
	if fx.mq != nil {
		fx.mq.close()
	}
	if fx.hc != nil {
		fx.hc.CloseIdleConnections()
	}
	if fx.httpSrv != nil {
		_ = fx.httpSrv.Close()
	}
	if fx.mqttLn != nil {
		_ = fx.mqttLn.Close()
	}
	if fx.api != nil {
		fx.api.Close()
	}
	if fx.p != nil {
		fx.p.Close()
	}
	if fx.sinkSrv != nil {
		_ = fx.sinkSrv.Close()
	}
	if fx.walDir != "" {
		_ = os.RemoveAll(fx.walDir)
	}
}

// counter reads one platform counter.
func (fx *fixture) counter(name string) float64 { return float64(fx.reg.Counter(name).Value()) }

// storedPoints is the platform's own count of points made durable in the
// time-series store (two per reading).
func (fx *fixture) storedPoints() int64 {
	return int64(fx.reg.Counter("cloud.ingest.readings").Value())
}
