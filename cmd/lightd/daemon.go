package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/epoch"
)

// daemonConfig carries every lightd flag in one place.
type daemonConfig struct {
	addr            string
	dir             string
	workload        string
	progPath        string
	source          string // loaded from progPath
	seedBase        uint64
	epochRuns       int
	epochInterval   time.Duration
	retainEpochs    int
	retainBytes     int64
	checkpointEvery int
	noO1, noO2      bool
	sleepUnit       int64
	noSession       bool
	noPresolve      bool
	historyLen      int
	logJSON         bool
	// flightCap sizes the per-thread flight rings of /forensics replays.
	flightCap int

	// SLO thresholds for the health tracker (0 = package default).
	sloMaxOverhead      float64
	sloMaxSealMS        int64
	sloMaxRetentionUtil float64
	sloMaxDivergences   uint64
}

// slo resolves the flag-configured SLO, filling package defaults.
func (c daemonConfig) slo() epoch.SLO {
	slo := epoch.DefaultSLO()
	if c.sloMaxOverhead > 0 {
		slo.MaxOverhead = c.sloMaxOverhead
	}
	if c.sloMaxSealMS > 0 {
		slo.MaxSealMS = c.sloMaxSealMS
	}
	if c.sloMaxRetentionUtil > 0 {
		slo.MaxRetentionUtil = c.sloMaxRetentionUtil
	}
	if c.sloMaxDivergences > 0 {
		slo.MaxDivergences = c.sloMaxDivergences
	}
	return slo
}

// daemon is the assembled process state the HTTP API serves from.
type daemon struct {
	cfg     daemonConfig
	store   *epoch.Store
	startup *epoch.StartupReport
	started time.Time
	logger  *slog.Logger
	health  *epoch.HealthTracker

	mu        sync.Mutex
	session   *epoch.Session
	sessionID int
	nextSID   int

	srv  *http.Server
	ln   net.Listener
	addr string
}

// start brings lightd up in order: the store (segment recovery), then
// the flag-configured recording session, then the HTTP listener, so the API
// never observes a half-started daemon. A failed step undoes what already
// started, in reverse order, and returns the error.
func start(cfg daemonConfig, logger *slog.Logger) (*daemon, error) {
	d := &daemon{
		cfg: cfg, started: time.Now(), nextSID: 1, logger: logger,
		health: epoch.NewHealthTracker(cfg.slo(), logger.With("component", "health")),
	}
	logger.Info("starting component", "component", "store")
	store, report, err := epoch.Open(epoch.StoreOptions{
		Dir:             cfg.dir,
		RetainEpochs:    cfg.retainEpochs,
		RetainBytes:     cfg.retainBytes,
		CheckpointEvery: cfg.checkpointEvery,
		HistoryLen:      cfg.historyLen,
		Logger:          logger,
	})
	if err != nil {
		return nil, fmt.Errorf("starting store: %w", err)
	}
	logger.Info("store recovered",
		"sealed", report.Sealed, "recovered", report.Recovered,
		"torn", report.TornTails, "corrupt", report.Corrupt,
		"husks", report.DeletedHusks, "history_rows", store.History().Len())
	d.store, d.startup = store, report

	// The daemon can also come up idle and be driven via POST /sessions.
	if !cfg.noSession && (cfg.workload != "" || cfg.source != "") {
		logger.Info("starting component", "component", "session")
		if _, err := d.startSession(epoch.SessionConfig{
			Workload:      cfg.workload,
			Source:        cfg.source,
			SeedBase:      cfg.seedBase,
			EpochRuns:     cfg.epochRuns,
			EpochInterval: cfg.epochInterval,
			NoO1:          cfg.noO1,
			NoO2:          cfg.noO2,
			SleepUnit:     cfg.sleepUnit,
			PreSolve:      !cfg.noPresolve,
		}); err != nil {
			d.closeStore()
			return nil, fmt.Errorf("starting session: %w", err)
		}
	}

	logger.Info("starting component", "component", "http")
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		d.stopSession()
		d.closeStore()
		return nil, fmt.Errorf("starting http: %w", err)
	}
	d.ln, d.addr = ln, ln.Addr().String()
	d.srv = &http.Server{Handler: d.mux()}
	go func() {
		if err := d.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("http server failed", "err", err)
		}
	}()
	logger.Info("serving", "addr", "http://"+d.addr, "dir", cfg.dir)
	return d, nil
}

// shutdown stops the daemon in reverse start order: the HTTP listener
// drains, the session stops after its in-flight run and seals its partial
// epoch, and the store closes, so a clean exit seals what can be sealed.
func (d *daemon) shutdown() {
	d.logger.Info("stopping component", "component", "http")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.logger.Error("stopping component failed", "component", "http", "err", err)
	}
	d.stopSession()
	d.closeStore()
}

// stopSession stops the active recording session, if any, sealing its
// epoch.
func (d *daemon) stopSession() {
	d.logger.Info("stopping component", "component", "session")
	d.mu.Lock()
	sess := d.session
	d.mu.Unlock()
	if sess != nil {
		sess.Stop()
	}
}

// closeStore aborts the open segment (the next start's recovery seals it).
func (d *daemon) closeStore() {
	d.logger.Info("stopping component", "component", "store")
	if err := d.store.Close(); err != nil {
		d.logger.Error("stopping component failed", "component", "store", "err", err)
	}
}

// startSession starts a session, enforcing the one-at-a-time rule, and
// assigns it a daemon-local ID.
func (d *daemon) startSession(cfg epoch.SessionConfig) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.session != nil && d.session.Status().Running {
		return 0, epoch.ErrSessionActive
	}
	sess, err := epoch.StartSession(d.store, cfg)
	if err != nil {
		return 0, err
	}
	id := d.nextSID
	d.nextSID++
	d.session = sess
	d.sessionID = id
	return id, nil
}
