// Package swamp is a from-scratch Go reproduction of the system described
// in "SWAMP: Smart Water Management Platform Overview and Security
// Challenges" (Kamienski et al., DSN-W 2018): a FIWARE-style IoT platform
// for precision irrigation — MQTT device transport, an NGSI context broker,
// an UltraLight IoT agent, OAuth2/PEP security enablers, payload
// cryptography, fog computing for offline availability, the four pilots
// (MATOPIBA VRI pivots, Guaspari deficit drip, Intercrop desalination-aware
// scheduling, CBEC canal distribution), and the behavioral-baseline anomaly
// detection the paper names as its central security challenge.
//
// Applications face the platform through the NGSI-v2 northbound HTTP
// API (internal/httpapi): GET /v2/entities with filtered queries (q=),
// attribute projection, ordering and pagination; subscription CRUD under
// /v2/subscriptions with webhook (HTTP POST) notifications; batch ingest
// via POST /v2/op/update; OAuth2 tokens at POST /oauth/token — every
// data route behind the PEP. In process, the same surface is
// ngsi.Broker.Query, GetEntity and subscriptions: entities they hand out
// are the broker's stored, immutable versions — retain them freely, never
// write to them (Clone one to edit) — and (*ngsi.Entity).AppendJSON is
// the one wire encoder behind listings, single GETs and webhook bodies; a
// listing or GET encodes each stored version once and serves the kept
// bytes after.
//
// State survives restarts through the durability plane (internal/wal): a
// segmented, group-committed write-ahead log plus point-in-time
// snapshots under the context broker and the time-series engine, with
// corruption-tolerant crash recovery on startup. Enable it with
// wal.dir / swampd -wal-dir (DESIGN.md §7 has the recovery protocol).
// New segments use the binary v2 record codec (per-segment string
// interning, delta-encoded telemetry timestamps); v1 JSON segments and
// snapshots replay forever.
//
// Every operational knob lives in one typed schema (internal/config),
// resolved in layers — declared defaults, then a -config file (a TOML
// subset), then SWAMP_* environment variables, then
// explicitly set flags, last writer wins with per-knob provenance
// (swampd -config-check prints the resolved stack). The spellings are
// mechanical: knob timeseries.retention ⇔ flag -ts-retention ⇔ env
// SWAMP_TIMESERIES_RETENTION. core.New reads every knob from this schema
// (core.Options.Config). The knobs are deployment settings — addresses,
// paths, pilot and mode, logging, cluster topology, the tenant quota
// policy with its [tenant.quotas] overrides, retention, snapshot cadence
// and page sizes; `swampd -config-check` lists every one with its value
// and source, and examples/swampd.toml documents each. Those marked
// dynamic reload at runtime via SIGHUP or POST /admin/reload,
// validate-then-swap: a bad file or a static-field change applies nothing
// and reports every violation. Tuning values with a single setting in use
// (queue bounds, shard counts, flush and segment thresholds, worker
// counts) are the components' own constants, not knobs.
//
// swampd's operational surface (DESIGN.md §9): /healthz liveness,
// /readyz readiness (503 until WAL recovery completes or while the MQTT
// queue depth exceeds 100 000 packets), /metrics in
// Prometheus text exposition format with every knob exported as a
// config.<name> gauge, POST /admin/reload, structured log/slog logging,
// graceful drain on SIGINT/SIGTERM. examples/swampd.toml is a commented
// starting point.
//
// Setting cluster.node_id (with peers + listen) makes core.New build one
// node of a replicated cluster (internal/cluster, DESIGN.md §10):
// entities and series consistent-hash across nodes, leaders ship their
// committed WAL to followers over TCP (min_isr follower acks before a
// write is acknowledged), deposed leaders are epoch-fenced, and every
// ingress (MQTT via the agent, fog and cloud ingest, the northbound)
// writes through a Router to the owning leader. /readyz grows a
// cluster block (partitions led/followed, per-session lag) and 503s
// past cluster.max_ready_lag; /metrics exports the swamp_cluster_*
// gauges. The Dockerfile + docker-compose.yml stand up the 3-node
// reference topology, smoke-tested by scripts/cluster-drill.sh.
//
// With tenant.enabled, the admission plane (internal/tenant, DESIGN.md
// §11) enforces per-tenant token-bucket quotas at every ingress — MQTT
// publishes, HTTP API requests, fog sync — pacing a tenant in debt
// before its work is done, then refusing it uncharged (HTTP 429 +
// Retry-After, a withheld PUBACK), MQTT disconnect last. The ops
// surface grows GET /admin/tenants and GET/PUT /admin/tenants/{id}/quota
// (validate-then-swap, like a reload), and /metrics exports the
// capped-cardinality swamp_tenant_* family. Deprecation note: tenancy used to ride untyped `owner string`
// fields; those are now tenant.ID throughout (ngsi.Subscription.Owner,
// identity.Principal.Owner, the cluster request metadata). JSON wire
// shapes are unchanged — subscription bodies still serialize the tenant
// under the "owner" key — but Go callers of the exported surfaces must
// use the typed ID.
//
// The MQTT broker's fan-out is zero-allocation in steady state: a
// copy-on-write subscription trie read through one atomic load, an
// epoch-validated topic→subscribers route cache, publishes encoded once
// into refcounted shared frames, and per-session writers that coalesce
// whole-queue drains into single buffered flushes (DESIGN.md §4).
//
// Every northbound GET /v2/entities request crosses the PEP, which asks
// the PDP afresh, and then runs the context broker's query engine.
//
// The implementation lives under internal/; see DESIGN.md for the system
// inventory; the derived experiment tables are printed by
// `swamp-sim -experiments`, and bench_test.go in this directory regenerates
// every experiment row under `go test -bench .`.
package swamp
