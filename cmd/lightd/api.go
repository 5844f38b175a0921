package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/epoch"
	"repro/internal/light"
	"repro/internal/obs"
	"repro/internal/trace"
)

// route is one documented API endpoint. The table below is the single
// source of truth three ways: the mux is registered from it, the docs
// honesty test requires every entry to appear in docs/OPERATIONS.md, and
// the e2e smoke test must exercise every entry (docs_test.go).
type route struct {
	method  string
	pattern string // mux pattern without the method prefix
	doc     string
	handler http.HandlerFunc
}

// routes builds the daemon's endpoint table.
func (d *daemon) routes() []route {
	return []route{
		{"GET", "/healthz", "SLO-aware health probe: 200 on ok/degraded, 503 on unhealthy", d.handleHealthz},
		{"GET", "/status", "daemon status: uptime, recovery report, session progress, retention, health", d.handleStatus},
		{"GET", "/epochs", "list retained epochs (newest last)", d.handleEpochs},
		{"GET", "/epochs/{id}", "one epoch's catalog entry", d.handleEpoch},
		{"GET", "/epochs/{id}/stats", "the epoch's sealed telemetry row (overhead, WAL cost, cache stats)", d.handleEpochStats},
		{"GET", "/epochs/{id}/log", "download a run's raw .lightlog (?run=N, default last)", d.handleEpochLog},
		{"GET", "/epochs/{id}/replay", "replay the epoch and verify it (?run=N for one run)", d.handleEpochReplay},
		{"GET", "/epochs/{id}/forensics", "replay one run and return the divergence post-mortem (?run=N, default last)", d.handleEpochForensics},
		{"GET", "/history", "the telemetry time series over sealed epochs (?n= newest rows), with current health", d.handleHistory},
		{"GET", "/slo", "the active health thresholds", d.handleSLOGet},
		{"POST", "/slo", "replace the health thresholds at runtime (JSON body: epoch.SLO)", d.handleSLOSet},
		{"GET", "/sessions", "the recording session's status", d.handleSessions},
		{"POST", "/sessions", "start a recording session (JSON body: epoch.SessionConfig)", d.handleSessionStart},
		{"POST", "/sessions/stop", "stop the recording session, sealing its epoch", d.handleSessionStop},
		{"POST", "/gc", "apply retention GC now", d.handleGC},
		{"GET", "/metrics", "Prometheus metrics (internal/obs registry)", d.handleMetrics},
	}
}

// mux registers every route plus the pprof endpoints lightrr/lightbench
// already expose, so one address serves record/replay and profiling.
func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, r := range d.routes() {
		mux.HandleFunc(r.method+" "+r.pattern, r.handler)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError maps typed epoch errors onto HTTP statuses.
func apiError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, epoch.ErrNoEpoch):
		status = http.StatusNotFound
	case errors.Is(err, epoch.ErrEpochOpen), errors.Is(err, epoch.ErrSessionActive):
		status = http.StatusConflict
	case errors.Is(err, epoch.ErrCorruptSegment), errors.Is(err, epoch.ErrCheckpointLost):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// epochParam resolves the {id} path wildcard.
func (d *daemon) epochParam(r *http.Request) (epoch.Meta, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return epoch.Meta{}, fmt.Errorf("%w: bad id %q", epoch.ErrNoEpoch, r.PathValue("id"))
	}
	return d.store.Get(id)
}

// runParam parses ?run=N (def when absent; -1 means "all" for replay).
func runParam(r *http.Request, def int) (int, error) {
	s := r.URL.Query().Get("run")
	if s == "" {
		return def, nil
	}
	if s == "all" {
		return -1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad run selector %q", s)
	}
	return n, nil
}

// healthInput gathers everything the SLO evaluation reads: the newest
// telemetry row, retention pressure, and the session's fatal error (if
// it died).
func (d *daemon) healthInput() epoch.HealthInput {
	in := epoch.HealthInput{
		RetainedBytes: d.store.TotalBytes(),
		RetainBudget:  d.store.RetainBudget(),
	}
	if t, ok := d.store.History().Newest(); ok {
		in.Newest, in.Have = t, true
	}
	d.mu.Lock()
	if d.session != nil {
		in.SessionErr = d.session.Status().Err
	}
	d.mu.Unlock()
	return in
}

// handleHealthz answers the SLO-aware health probe: ok and degraded are
// 200 (the daemon is serving; degraded is an alerting signal, not a
// restart signal), unhealthy is 503 so orchestrators take action.
func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := d.health.Evaluate(d.healthInput())
	status := http.StatusOK
	if h.State == epoch.HealthUnhealthy {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// statusBody is the /status response shape.
type statusBody struct {
	UptimeSeconds  float64              `json:"uptime_seconds"`
	DataDir        string               `json:"data_dir"`
	Startup        string               `json:"startup_recovery"`
	Epochs         int                  `json:"epochs_retained"`
	Bytes          int64                `json:"bytes_retained"`
	RetainEpochs   int                  `json:"retain_epochs"`
	RetainBytes    int64                `json:"retain_bytes,omitempty"`
	Session        *epoch.SessionStatus `json:"session,omitempty"`
	SessionID      int                  `json:"session_id,omitempty"`
	NewestSealedID uint64               `json:"newest_sealed_id,omitempty"`
	Health         epoch.Health         `json:"health"`
	HistoryRows    int                  `json:"history_rows"`
}

// handleStatus reports daemon-wide state.
func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	body := statusBody{
		UptimeSeconds: time.Since(d.started).Seconds(),
		DataDir:       d.cfg.dir,
		Startup:       d.startup.String(),
		Epochs:        len(d.store.Epochs()),
		Bytes:         d.store.TotalBytes(),
		RetainEpochs:  d.cfg.retainEpochs,
		RetainBytes:   d.cfg.retainBytes,
	}
	d.mu.Lock()
	if d.session != nil {
		st := d.session.Status()
		body.Session = &st
		body.SessionID = d.sessionID
	}
	d.mu.Unlock()
	if m, err := d.store.Newest(); err == nil {
		body.NewestSealedID = m.ID
	}
	body.Health = d.health.Evaluate(d.healthInput())
	body.HistoryRows = d.store.History().Len()
	writeJSON(w, http.StatusOK, body)
}

// handleEpochs lists the catalog.
func (d *daemon) handleEpochs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"epochs": d.store.Epochs()})
}

// handleEpoch returns one catalog entry.
func (d *daemon) handleEpoch(w http.ResponseWriter, r *http.Request) {
	m, err := d.epochParam(r)
	if err != nil {
		apiError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleEpochStats serves the epoch's sealed telemetry row. Every sealed
// epoch has one: cleanly cut epochs carry the fused session row, crash-
// sealed and pre-telemetry epochs a synthesized Partial row. An epoch
// whose row aged out of the in-memory series is re-read from its segment.
func (d *daemon) handleEpochStats(w http.ResponseWriter, r *http.Request) {
	m, err := d.epochParam(r)
	if err != nil {
		apiError(w, err)
		return
	}
	switch m.State {
	case epoch.StateOpen:
		apiError(w, fmt.Errorf("%w: %d", epoch.ErrEpochOpen, m.ID))
		return
	case epoch.StateCorrupt:
		apiError(w, fmt.Errorf("%w: epoch %d: %s", epoch.ErrCorruptSegment, m.ID, m.Err))
		return
	}
	if t, ok := d.store.History().Get(m.ID); ok {
		writeJSON(w, http.StatusOK, t)
		return
	}
	data, _, err := epoch.InspectSegment(m.Path)
	if err != nil {
		apiError(w, err)
		return
	}
	if data.Telemetry != nil {
		writeJSON(w, http.StatusOK, *data.Telemetry)
		return
	}
	writeJSON(w, http.StatusOK, epoch.SynthesizeTelemetry(m.ID, data, m.SealedUnixNS))
}

// historyBody is the /history response shape — the same rows lightstat
// renders, plus the health evaluation so one GET drives the dashboard.
type historyBody struct {
	Rows   []epoch.Telemetry `json:"rows"`
	Health epoch.Health      `json:"health"`
	SLO    epoch.SLO         `json:"slo"`
}

// handleHistory serves the telemetry time series (?n= bounds the rows,
// newest last; default all retained).
func (d *daemon) handleHistory(w http.ResponseWriter, r *http.Request) {
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad n %q", s)})
			return
		}
		n = v
	}
	rows := d.store.History().Last(n)
	if rows == nil {
		rows = []epoch.Telemetry{}
	}
	writeJSON(w, http.StatusOK, historyBody{
		Rows:   rows,
		Health: d.health.Evaluate(d.healthInput()),
		SLO:    d.health.SLO(),
	})
}

// handleSLOGet reports the active health thresholds.
func (d *daemon) handleSLOGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.health.SLO())
}

// handleSLOSet replaces the health thresholds at runtime and returns the
// re-evaluated health, so a threshold change is immediately visible (and
// a forced degraded→ok transition is scriptable, see stat-smoke).
func (d *daemon) handleSLOSet(w http.ResponseWriter, r *http.Request) {
	var slo epoch.SLO
	if err := json.NewDecoder(r.Body).Decode(&slo); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad slo: " + err.Error()})
		return
	}
	d.health.SetSLO(slo)
	writeJSON(w, http.StatusOK, map[string]any{
		"slo":    d.health.SLO(),
		"health": d.health.Evaluate(d.healthInput()),
	})
}

// handleEpochLog streams one run's encoded log, lighttrace-compatible.
func (d *daemon) handleEpochLog(w http.ResponseWriter, r *http.Request) {
	m, err := d.epochParam(r)
	if err != nil {
		apiError(w, err)
		return
	}
	data, err := d.store.Load(m.ID)
	if err != nil {
		apiError(w, err)
		return
	}
	run, err := runParam(r, len(data.Runs)-1)
	if err != nil || run < 0 || run >= len(data.Runs) {
		apiError(w, fmt.Errorf("%w: epoch %d has runs 0..%d", epoch.ErrNoEpoch, m.ID, len(data.Runs)-1))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=epoch-%d-run-%d.lightlog", m.ID, run))
	if err := trace.Encode(w, data.Runs[run].Log); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleEpochReplay replays and verifies an epoch on demand.
func (d *daemon) handleEpochReplay(w http.ResponseWriter, r *http.Request) {
	m, err := d.epochParam(r)
	if err != nil {
		apiError(w, err)
		return
	}
	data, err := d.store.Load(m.ID)
	if err != nil {
		apiError(w, err)
		return
	}
	run, err := runParam(r, -1)
	if err != nil {
		apiError(w, err)
		return
	}
	v, err := epoch.ReplayEpoch(data, run)
	if err != nil {
		apiError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// forensicsBody is the /forensics response shape.
type forensicsBody struct {
	Verdict    epoch.RunVerdict       `json:"verdict"`
	Divergence *light.DivergenceError `json:"divergence,omitempty"`
	Forensics  *light.ForensicReport  `json:"forensics,omitempty"`
}

// handleEpochForensics replays one run and returns its post-mortem.
func (d *daemon) handleEpochForensics(w http.ResponseWriter, r *http.Request) {
	m, err := d.epochParam(r)
	if err != nil {
		apiError(w, err)
		return
	}
	data, err := d.store.Load(m.ID)
	if err != nil {
		apiError(w, err)
		return
	}
	run, err := runParam(r, len(data.Runs)-1)
	if err != nil {
		apiError(w, err)
		return
	}
	rv, out, err := epoch.ReplayRunForensics(data, run, d.cfg.flightCap)
	if err != nil {
		apiError(w, err)
		return
	}
	body := forensicsBody{Verdict: rv}
	if out != nil {
		body.Divergence = out.Divergence
		body.Forensics = out.Forensics
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSessions reports the session catalog (one live session).
func (d *daemon) handleSessions(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	body := map[string]any{"sessions": []any{}}
	if d.session != nil {
		st := d.session.Status()
		body["sessions"] = []any{map[string]any{"id": d.sessionID, "status": st}}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSessionStart starts a recording session from a JSON config.
func (d *daemon) handleSessionStart(w http.ResponseWriter, r *http.Request) {
	var cfg epoch.SessionConfig
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad session config: " + err.Error()})
		return
	}
	id, err := d.startSession(cfg)
	if err != nil {
		apiError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id})
}

// handleSessionStop stops the live session and seals its epoch.
func (d *daemon) handleSessionStop(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	sess := d.session
	id := d.sessionID
	d.mu.Unlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no recording session"})
		return
	}
	sess.Stop()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": sess.Status()})
}

// handleGC applies retention now.
func (d *daemon) handleGC(w http.ResponseWriter, _ *http.Request) {
	pruned, freed := d.store.GC()
	writeJSON(w, http.StatusOK, map[string]any{"pruned_epochs": pruned, "freed_bytes": freed})
}

// handleMetrics renders the obs registry in Prometheus text format. The
// uptime gauge is refreshed here so every scrape reads an exact value.
func (d *daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	epoch.SetUptimeSeconds(time.Since(d.started).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w)
}
