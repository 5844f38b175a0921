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

// The daemon is assembled with a component builder (the flow-go
// access-node-builder idiom referenced in ROADMAP item 1): each subsystem
// registers a named component with a start function, Build starts them in
// registration order — store recovery before the session, the session
// before the HTTP listener — and Shutdown stops them in reverse, so the
// API never observes a half-started daemon and a clean exit always seals
// what can be sealed.

// component is one named subsystem with ordered start/stop hooks.
type component struct {
	name  string
	start func() error
	stop  func() error
}

// builder accumulates components and their shared wiring.
type builder struct {
	cfg        daemonConfig
	components []component
	d          *daemon
}

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

	// shutdown stops every component in reverse start order; set by Build.
	shutdown func()
}

// newBuilder wires the standard component set for cfg.
func newBuilder(cfg daemonConfig, logger *slog.Logger) *builder {
	if logger == nil {
		logger = slog.Default()
	}
	b := &builder{cfg: cfg, d: &daemon{
		cfg: cfg, started: time.Now(), nextSID: 1,
		logger: logger,
		health: epoch.NewHealthTracker(cfg.slo(), logger.With("component", "health")),
	}}
	b.add("store", b.startStore, b.stopStore)
	b.add("session", b.startSession, b.stopSession)
	b.add("http", b.startHTTP, b.stopHTTP)
	return b
}

// add registers one component.
func (b *builder) add(name string, start, stop func() error) {
	b.components = append(b.components, component{name: name, start: start, stop: stop})
}

// Build starts every component in order; on failure it unwinds the ones
// already started and returns the error.
func (b *builder) Build() (*daemon, error) {
	for i, c := range b.components {
		b.d.logger.Info("starting component", "component", c.name)
		if err := c.start(); err != nil {
			for j := i - 1; j >= 0; j-- {
				if serr := b.components[j].stop(); serr != nil {
					b.d.logger.Error("stopping component failed", "component", b.components[j].name, "err", serr)
				}
			}
			return nil, fmt.Errorf("starting %s: %w", c.name, err)
		}
	}
	b.d.shutdown = func() {
		for j := len(b.components) - 1; j >= 0; j-- {
			c := b.components[j]
			b.d.logger.Info("stopping component", "component", c.name)
			if err := c.stop(); err != nil {
				b.d.logger.Error("stopping component failed", "component", c.name, "err", err)
			}
		}
	}
	return b.d, nil
}

// startStore opens the segment directory and runs crash recovery.
func (b *builder) startStore() error {
	store, report, err := epoch.Open(epoch.StoreOptions{
		Dir:             b.cfg.dir,
		RetainEpochs:    b.cfg.retainEpochs,
		RetainBytes:     b.cfg.retainBytes,
		CheckpointEvery: b.cfg.checkpointEvery,
		HistoryLen:      b.cfg.historyLen,
		Logger:          b.d.logger,
	})
	if err != nil {
		return err
	}
	b.d.logger.Info("store recovered",
		"sealed", report.Sealed, "recovered", report.Recovered,
		"torn", report.TornTails, "corrupt", report.Corrupt,
		"husks", report.DeletedHusks, "history_rows", store.History().Len())
	b.d.store = store
	b.d.startup = report
	return nil
}

// stopStore aborts the open segment (next start's recovery seals it).
func (b *builder) stopStore() error { return b.d.store.Close() }

// startSession starts the flag-configured recording session, if any; the
// daemon can also come up idle and be driven via POST /sessions.
func (b *builder) startSession() error {
	if b.cfg.noSession || (b.cfg.workload == "" && b.cfg.source == "") {
		return nil
	}
	_, err := b.d.startSession(epoch.SessionConfig{
		Workload:      b.cfg.workload,
		Source:        b.cfg.source,
		SeedBase:      b.cfg.seedBase,
		EpochRuns:     b.cfg.epochRuns,
		EpochInterval: b.cfg.epochInterval,
		NoO1:          b.cfg.noO1,
		NoO2:          b.cfg.noO2,
		SleepUnit:     b.cfg.sleepUnit,
		PreSolve:      !b.cfg.noPresolve,
	})
	return err
}

// stopSession stops the active recording session, sealing its epoch.
func (b *builder) stopSession() error {
	b.d.mu.Lock()
	sess := b.d.session
	b.d.mu.Unlock()
	if sess != nil {
		sess.Stop()
	}
	return nil
}

// startHTTP binds the API listener and begins serving.
func (b *builder) startHTTP() error {
	ln, err := net.Listen("tcp", b.cfg.addr)
	if err != nil {
		return err
	}
	b.d.ln = ln
	b.d.addr = ln.Addr().String()
	b.d.srv = &http.Server{Handler: b.d.mux()}
	go func() {
		if err := b.d.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			b.d.logger.Error("http server failed", "err", err)
		}
	}()
	b.d.logger.Info("serving", "addr", "http://"+b.d.addr, "dir", b.cfg.dir)
	return nil
}

// stopHTTP drains and closes the listener.
func (b *builder) stopHTTP() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return b.d.srv.Shutdown(ctx)
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
