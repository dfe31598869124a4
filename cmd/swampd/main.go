// Command swampd runs a SWAMP platform as a long-lived daemon: the MQTT
// broker listens on a real TCP port (external devices and dashboards can
// connect with any MQTT 3.1.1 client), the simulated pilot devices feed it,
// and the decision loop runs on a wall-clock cadence.
//
// Configuration is layered: schema defaults, then the -config file (a
// TOML subset), then SWAMP_* environment variables, then any
// explicitly set command-line flag — last writer wins. -config-check
// resolves the stack, prints every knob with its provenance, and exits.
//
// The HTTP listener comes up before the platform constructs, so the
// operational surface is honest about startup: /healthz is 200 as soon as
// the port is bound, /readyz is 503 until WAL recovery completes (and
// again whenever the aggregate MQTT queue depth exceeds 100 000 packets),
// and API routes return 503 "starting"
// until the platform attaches. SIGHUP and POST /admin/reload re-resolve
// the config stack and apply dynamic knobs validate-then-swap; SIGINT and
// SIGTERM drain the HTTP server gracefully and exit 0.
//
// Usage:
//
//	swampd -config swampd.toml
//	swampd -pilot intercrop -mode farm-fog -listen 127.0.0.1:1883 -interval 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/swamp-project/swamp/internal/config"
	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/httpapi"
	"github.com/swamp-project/swamp/internal/metrics"
	"github.com/swamp-project/swamp/internal/tenant"
)

// readyQueueWatermark is the aggregate MQTT queue depth above which
// /readyz reports 503.
const readyQueueWatermark = 100_000

func main() {
	configPath := flag.String("config", "", "config file (a TOML subset, as examples/swampd.toml); flags and SWAMP_* env override it")
	configCheck := flag.Bool("config-check", false, "resolve the config stack, print every knob with provenance, and exit")
	overlay := config.RegisterFlags(flag.CommandLine)
	flag.Parse()

	loader := &config.Loader{Path: *configPath, Flags: overlay}
	cfg, prov, err := loader.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "swampd:", err)
		os.Exit(1)
	}
	if *configCheck {
		fmt.Print(config.Describe(cfg, prov))
		return
	}
	logger := newLogger(cfg.Log)
	slog.SetDefault(logger)
	if err := run(loader, cfg, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the structured logger from the [log] section.
func newLogger(lc config.Log) *slog.Logger {
	var lvl slog.Level
	switch lc.Level {
	case "debug":
		lvl = slog.LevelDebug
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if lc.Format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func run(loader *config.Loader, cfg *config.Config, logger *slog.Logger) error {
	reg := metrics.NewRegistry()
	config.ExportGauges(reg, cfg)

	// Reload state. cfgMu serialises SIGHUP and POST /admin/reload; the
	// platform and API pointers are atomic because the HTTP mux reads them
	// before core.New has finished.
	var (
		cfgMu       sync.Mutex
		platform    atomic.Pointer[core.Platform]
		api         atomic.Pointer[httpapi.Server]
		maxReadyLag atomic.Int64
		ready       atomic.Bool
	)
	current := cfg
	maxReadyLag.Store(cfg.Cluster.MaxReadyLag)

	// swap validates candidate against the running config and applies its
	// dynamic knobs; the caller holds cfgMu.
	swap := func(candidate *config.Config) ([]string, error) {
		applied, err := config.ValidateReload(current, candidate)
		if err != nil {
			return nil, err
		}
		if p := platform.Load(); p != nil {
			p.ApplyDynamic(candidate)
		}
		maxReadyLag.Store(candidate.Cluster.MaxReadyLag)
		config.ExportGauges(reg, candidate)
		current = candidate
		return applied, nil
	}
	doReload := func() ([]string, error) {
		cfgMu.Lock()
		defer cfgMu.Unlock()
		candidate, _, err := loader.Load()
		if err != nil {
			return nil, err
		}
		return swap(candidate)
	}
	var reloadHook func() ([]string, error)
	if loader.Path != "" {
		reloadHook = doReload // without a file the stack cannot change at runtime
	}

	readiness := func() error {
		if !ready.Load() {
			return errors.New("platform starting (WAL recovery in progress)")
		}
		if depth := reg.Gauge("mqtt.queue.depth").Value(); depth > readyQueueWatermark {
			return fmt.Errorf("mqtt queue depth %.0f above watermark %d", depth, readyQueueWatermark)
		}
		if p := platform.Load(); p != nil && p.Node != nil {
			return p.Node.ReadyLag(maxReadyLag.Load())
		}
		return nil
	}
	ops := httpapi.NewOps(reg, readiness, reloadHook)
	ops.Detail = func() map[string]any {
		d := map[string]any{
			"queue_depth": reg.Gauge("mqtt.queue.depth").Value(),
		}
		if p := platform.Load(); p != nil && p.Durable != nil {
			st := p.Durable.Recovered
			d["recovery"] = map[string]any{
				"snapshot_records": st.SnapshotRecords,
				"tail_records":     st.TailRecords,
				"torn":             st.Torn,
			}
		}
		if p := platform.Load(); p != nil && p.Node != nil {
			d["cluster"] = p.Node.Status()
		}
		return d
	}
	ops.Tenants = func() *tenant.Admission {
		if p := platform.Load(); p != nil {
			return p.Admission
		}
		return nil
	}
	// PUT /admin/tenants/{id}/quota rides the same validate-then-swap
	// pipeline as a reload: edit the quota table on a clone, validate the
	// whole candidate, then apply. Runtime overrides last until the next
	// file reload re-resolves the stack from disk.
	ops.SetQuota = func(id, spec string) error {
		cfgMu.Lock()
		defer cfgMu.Unlock()
		candidate := current.Clone()
		if spec == "" {
			delete(candidate.Tenant.Quotas, id)
		} else {
			if candidate.Tenant.Quotas == nil {
				candidate.Tenant.Quotas = map[string]string{}
			}
			candidate.Tenant.Quotas[id] = spec
		}
		_, err := swap(candidate)
		return err
	}

	// Bind and serve HTTP before the (possibly long) platform construction,
	// so /readyz can report 503 during WAL recovery instead of the port
	// simply not existing yet.
	var httpSrv *http.Server
	if cfg.Server.HTTPListen != "" {
		httpLn, err := net.Listen("tcp", cfg.Server.HTTPListen)
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ops.Handles(r.URL.Path) {
				ops.ServeHTTP(w, r)
				return
			}
			if a := api.Load(); a != nil {
				a.ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"starting","description":"platform is constructing; poll /readyz"}`)
		})}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("http", "err", err)
			}
		}()
		logger.Info("http listening", "addr", httpLn.Addr().String())
	}

	opts, err := core.OptionsFromConfig(cfg)
	if err != nil {
		return err
	}
	opts.Metrics = reg
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	p, err := core.New(opts)
	if err != nil {
		return err
	}
	defer p.Close()
	platform.Store(p)

	ln, err := net.Listen("tcp", cfg.Server.Listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		if err := p.Broker.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Error("broker", "err", err)
		}
	}()

	if cfg.Server.HTTPListen != "" {
		apiCfg := httpapi.Config{
			Context: p.Context, Tokens: p.Tokens, PEP: p.PEP,
			Analytics: p.Analytics, Metrics: reg,
			Webhooks:          p.Webhooks,
			Admission:         p.Admission,
			QueryDefaultLimit: cfg.HTTP.DefaultLimit,
			QueryMaxLimit:     cfg.HTTP.QueryCap,
		}
		if p.Router != nil {
			apiCfg.Cluster = p.Router
		}
		a, err := httpapi.NewServer(apiCfg)
		if err != nil {
			return err
		}
		defer a.Close()
		api.Store(a)
	}
	ready.Store(true)

	logger.Info("swampd up",
		"pilot", opts.Pilot.Name, "mode", opts.Mode.String(),
		"mqtt", ln.Addr().String(), "sealed", opts.Sealed)
	if p.Durable != nil {
		st := p.Durable.Recovered
		logger.Info("wal recovered",
			"dir", cfg.WAL.Dir, "snapshot_records", st.SnapshotRecords,
			"tail_records", st.TailRecords, "torn", st.Torn,
			"entities", p.Context.EntityCount(), "points", p.Store.Stats().Points)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	tick := time.NewTicker(cfg.Server.Interval)
	defer tick.Stop()
	pilot := opts.Pilot
	day := 0
	for {
		select {
		case <-stop:
			logger.Info("shutting down")
			if httpSrv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := httpSrv.Shutdown(ctx)
				cancel()
				if err != nil {
					logger.Warn("http drain", "err", err)
				}
			}
			return nil
		case <-hup:
			if reloadHook == nil {
				logger.Warn("SIGHUP ignored: no -config file to reload from")
				continue
			}
			applied, err := doReload()
			if err != nil {
				logger.Error("reload rejected", "err", err)
				continue
			}
			logger.Info("config reloaded", "applied", applied)
		case at := <-tick.C:
			// Each tick is one accelerated "day" of the pilot.
			doy := (pilot.SeasonStartDOY+day-1)%365 + 1
			wd := p.Weather.Next(doy)
			p.Station.SetDay(wd)
			p.Decision.SetSeasonDay(day % pilot.Crop.SeasonDays())
			if err := p.PumpOnce(at, 5*time.Second); err != nil {
				logger.Error("pump", "err", err)
				continue
			}
			cmds, err := p.DecideOnce(at)
			if err != nil {
				logger.Error("decide", "err", err)
			}
			vec, _, err := p.Decision.PrescriptionFromCommands(cmds, p.Field.Grid.NumCells())
			if err != nil {
				logger.Error("prescription", "err", err)
				continue
			}
			if _, err := p.Field.StepAll(4, wd.RainMM, vec); err != nil {
				logger.Error("soil", "err", err)
				continue
			}
			mean, min, max := p.Field.MoistureStats()
			logger.Info("day",
				"day", day, "entities", p.Context.EntityCount(), "commands", len(cmds),
				"moisture", fmt.Sprintf("%.3f [%.3f..%.3f]", mean, min, max),
				"sessions", p.Broker.SessionCount())
			day++
		}
	}
}
