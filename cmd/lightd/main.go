// Command lightd is the always-on Light recording daemon: it records a
// workload continuously, cuts the stream into epochs sealed as WAL-style
// segment files, survives crashes by truncating torn tails on restart,
// and serves an HTTP API for listing, downloading, and replaying any
// retained epoch. See docs/OPERATIONS.md for the operator guide.
package main

import (
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7099", "HTTP listen address")
	flag.StringVar(&cfg.dir, "dir", "lightd-data", "segment data directory (created if missing)")
	flag.StringVar(&cfg.workload, "workload", "", "built-in workload to record (empty with no -prog: start idle)")
	flag.StringVar(&cfg.progPath, "prog", "", "MiniJ source file to record instead of a built-in workload")
	flag.Uint64Var(&cfg.seedBase, "seed-base", 1, "run i is seeded with seed-base+i")
	flag.IntVar(&cfg.epochRuns, "epoch-runs", 0, "cut an epoch after this many runs (0 = default 8)")
	flag.DurationVar(&cfg.epochInterval, "epoch-interval", 0, "also cut at the first run boundary past this interval (0 = run-count cuts only)")
	flag.IntVar(&cfg.retainEpochs, "retain-epochs", 0, "sealed epochs to keep (0 = default 16, negative = unlimited)")
	flag.Int64Var(&cfg.retainBytes, "retain-bytes", 0, "additional byte budget for sealed epochs (0 = no byte cap)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 0, "fsync a checkpoint every N runs (0 = default 4)")
	flag.BoolVar(&cfg.noO1, "no-o1", false, "disable the O1 redundancy reduction while recording")
	flag.BoolVar(&cfg.noO2, "no-o2", false, "disable the O2 static-race instrument mask")
	flag.Int64Var(&cfg.sleepUnit, "sleep-unit", 0, "nanoseconds per sleep(1) unit during record runs")
	flag.BoolVar(&cfg.noSession, "no-session", false, "start idle even if -workload/-prog is set; drive via POST /sessions")
	flag.BoolVar(&cfg.noPresolve, "no-presolve", false, "disable background pre-solving of sealed epochs (epoch N solves while N+1 records)")
	flag.IntVar(&cfg.historyLen, "history-len", 0, "telemetry rows kept in the in-memory /history series (0 = default 256)")
	flag.Float64Var(&cfg.sloMaxOverhead, "slo-max-overhead", 0, "degrade health when an epoch's record overhead factor exceeds this (0 = default 50)")
	flag.Int64Var(&cfg.sloMaxSealMS, "slo-max-seal-ms", 0, "degrade health when an epoch's seal flush exceeds this many ms (0 = default 1000)")
	flag.Float64Var(&cfg.sloMaxRetentionUtil, "slo-max-retention-util", 0, "degrade health when retained bytes exceed this fraction of -retain-bytes (0 = default 0.9)")
	flag.Uint64Var(&cfg.sloMaxDivergences, "slo-max-divergences", 0, "mark unhealthy when an epoch sees more than this many replay divergences (default 0: none tolerated)")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON lines instead of text")
	flag.IntVar(&cfg.flightCap, "flight-capacity", 0, "per-thread flight-ring capacity of /forensics replays (0 = default 4096)")
	flag.Parse()

	// Structured logging is daemon-wide: every subsystem logs through
	// slog with component/epoch/session correlation fields.
	opts := &slog.HandlerOptions{Level: slog.LevelDebug}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, opts)
	if cfg.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, opts)
	}
	logger := slog.New(handler).With("app", "lightd")
	slog.SetDefault(logger)

	if cfg.progPath != "" {
		src, err := os.ReadFile(cfg.progPath)
		if err != nil {
			logger.Error("reading -prog failed", "path", cfg.progPath, "err", err)
			os.Exit(1)
		}
		cfg.source = string(src)
	}

	if cfg.flightCap <= 0 {
		cfg.flightCap = flight.DefaultCapacity
	}
	obs.Enable()

	d, err := start(cfg, logger)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Info("shutting down", "signal", got.String())
	done := make(chan struct{})
	go func() { d.shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		logger.Error("shutdown timed out")
		os.Exit(1)
	}
}
