# Repository verification targets. `make ci` (or `make verify`) is the
# default gate: gofmt (fmt-check), vet, build, doc-comment lint
# (docs-check), the full test suite, the race-detector run over the
# concurrency-bearing packages (the recorder's lock-free paths, the
# replayer's gates, epoch sessions and the baseline tools), a repeated
# racy-counter round trip that keeps the schedule solve bounded
# (solve-stall), a bounded randomized differential campaign (fuzz-smoke),
# and a run of every example program (examples-smoke).

GO ?= go

.PHONY: ci verify fmt-check vet build test race solve-stall bench bench-solve bench-replay bench-codec bench-record bench-gate bench-contract fuzz-smoke fuzz flake-smoke lightd-smoke stat-smoke report docs-check trace-check examples-smoke

ci: fmt-check docs-check build test race solve-stall bench-solve bench-replay bench-codec bench-record trace-check bench-gate bench-contract fuzz-smoke flake-smoke lightd-smoke stat-smoke examples-smoke

verify: ci

# fmt-check fails when any Go file is not gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# docs-check enforces the documentation bar: go vet plus cmd/doclint, which
# fails on any package or exported symbol without a doc comment.
docs-check: vet
	$(GO) run ./cmd/doclint

# report regenerates the bench trajectory artifact: the full 24-workload
# record/solve/replay sweep plus the GOMAXPROCS multicore sweep, as
# schema-versioned JSON (see DESIGN.md §7).
report:
	$(GO) run ./cmd/lightbench -report -out BENCH_light.json

# bench-gate reruns the multicore record-overhead sweep and fails if any
# proc level's average overhead regressed beyond BENCH_GATE_THRESHOLD× the
# committed baseline. CI runs it in smoke mode (few repetitions, generous
# threshold); tighten both for a quiet machine:
#   make bench-gate BENCH_GATE_RUNS=10 BENCH_GATE_THRESHOLD=1.1
BENCH_GATE_BASELINE ?= BENCH_light.json
BENCH_GATE_THRESHOLD ?= 1.4
BENCH_GATE_RUNS ?= 3
BENCH_GATE_PROCS ?= 1,2,4,8
bench-gate:
	$(GO) run ./cmd/lightbench -gate -baseline $(BENCH_GATE_BASELINE) \
		-gate-threshold $(BENCH_GATE_THRESHOLD) -runs $(BENCH_GATE_RUNS) \
		-procs $(BENCH_GATE_PROCS)

# bench-contract runs the lightperf benchmark's own tests (bench/ is a
# separate module, so `go test ./...` skips it): they build the benchmark
# against light's public API and drive every workload through a smoke run.
bench-contract:
	cd bench && $(GO) test .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the recorder, solver, fuzz oracles, VM, epoch sessions, the
# baseline tools' recorders and replayers, and the observability layer (the
# metric registry, the histograms and the flight rings), and repeats the
# replayer's stall and per-location stress tests, the recorder's concurrent
# first-touch test (shadow-cell claims and location-table growth under
# contention) and the concurrent epoch replay tests, and the baseline
# tools' stall tests: a stall verdict is exact (no clock), for Light and for
# the LEAP, Stride and Chimera replayers' shared turn-taking core alike, and
# an epoch's verdicts, their order and the first error do not depend on how
# its runs share the cores, so both must hold on every interleaving.
race:
	$(GO) test -race ./internal/light/ ./internal/smt/ ./internal/fuzz/ ./internal/vm/ ./internal/epoch/ ./internal/baseline/... ./internal/obs/...
	$(GO) test -race -count=20 -run 'Stall|Deadlock|StressPerLocation|ConcurrentFirstTouch' ./internal/light/
	$(GO) test -race -count=20 -run 'Stall' ./internal/baseline/...
	$(GO) test -race -count=10 -run 'ReplayEpochConcurrent' ./internal/epoch/

# solve-stall repeats the racy-counter round trip, whose recordings leave
# single-location residual components, 50 times under a 120 s budget: a
# solve that stops being bounded (DESIGN.md §4d) times out here.
solve-stall:
	$(GO) test -count=50 -run TestRacyCounterRoundTrip -timeout 120s ./internal/light/

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-solve measures schedule synthesis on nine committed golden
# recordings (jgf-crypt, jgf-sor, srv-proxy, par-handoff, stamp-labyrinth,
# srv-tomcat, par-hotfield, and fuzz-cdcl-1loc and fuzz-cdcl-2loc, whose
# residual disjunctions are constructed and checked by the final sort), so
# its rows compare across commits; the fastpath_rate and components columns
# make the tier split visible next to the ns/op and allocation columns, and
# check_per_solve (the median per-iteration ratio, with a collection before
# every timed solve and check) the checker's cost.
bench-solve:
	$(GO) test -run xxx -bench 'BenchmarkSolveFastpath' -benchtime 10x .

# bench-replay measures enforced re-execution of a pre-solved schedule on
# par-hotfield (one contended location), par-handoff (monitor hand-offs)
# and jgf-crypt (disjoint data), with allocation columns and parks/op (gated
# waits that used up their yields and parked). Every iteration replays a
# fresh Schedule over the same order, so each one builds and times the gate
# table, as an epoch replay or a cache hit does. BenchmarkReplayEpoch
# verifies one sealed 8-run epoch of an always-on-shaped service per
# iteration (ms/epoch), cold and with every run's schedule cached first.
bench-replay:
	$(GO) test -run xxx -bench 'BenchmarkReplay' -benchtime 3x .

# bench-codec compares the two log formats over the committed golden
# recordings: bytes per event, and encode and decode time per pass over all
# of them, for LIGHTLOG1 (the golden files' own format, written by the
# reference writer in lightlog1_test.go) against LIGHTLOG2 (what
# trace.Encode writes). It fails if the reference writer stops reproducing
# the golden files or either format stops round-tripping.
bench-codec:
	$(GO) test -run xxx -bench 'BenchmarkCodec' -benchtime 200x .

# bench-record measures the recorder's hot path with allocation columns:
# BenchmarkRecorder records a small contended program end to end through
# the VM (one record per op), and BenchmarkRecorderParallel drives
# SharedAccess directly on three access patterns (hotfield, stripedarray,
# handoff; one access per op). BenchmarkRecorder records with a nil mask, so
# the root BenchmarkRecorderO2 records an always-on-shaped service under its
# O2 mask: its allocs/op keeps the cost of the sites O2 leaves out visible.
# The fixed iteration counts keep its rows comparable across commits.
bench-record:
	$(GO) test ./internal/light -run xxx -bench 'BenchmarkRecorder$$' -benchmem -benchtime 5000x
	$(GO) test ./internal/light -run xxx -bench 'BenchmarkRecorderParallel' -benchmem -benchtime 2000000x
	$(GO) test . -run xxx -bench 'BenchmarkRecorderO2' -benchmem -benchtime 500x

# trace-check drives the lighttrace inspector end to end: summary, export
# (schema-validated Chrome trace JSON over the bugrepro program and fuzz
# corpus seeds), first-difference diff, and constraint explain (see
# cmd/lighttrace/main_test.go), plus the flight-recorder export tests.
trace-check:
	$(GO) test ./cmd/lighttrace/ ./internal/obs/flight/

# fuzz-smoke is the CI-sized randomized gate: a bounded lightfuzz campaign
# (generator -> record -> replay -> oracles, including the schedule
# checker on every recorded log's solve), a perturbed
# campaign, the stored seed corpus as a regression suite, and short runs of
# the native go-fuzz targets (the compiler, the trace codec, and the
# offline pipeline from decoded bytes to the replay gate table, with the
# propagation differential on every input that solves: the chain check's
# decided locations and counted disjunctions against the enumeration).
fuzz-smoke:
	$(GO) run ./cmd/lightfuzz -seeds 100 -jobs 4
	$(GO) run ./cmd/lightfuzz -seeds 40 -jobs 4 -perturb 30
	$(GO) run ./cmd/lightfuzz -corpus internal/fuzz/testdata/corpus -regress
	$(GO) test ./internal/compiler -run xxx -fuzz FuzzCompileSource -fuzztime 10s
	$(GO) test ./internal/trace -run xxx -fuzz FuzzTraceRoundTrip -fuzztime 10s
	$(GO) test ./internal/light -run xxx -fuzz FuzzComputeSchedule -fuzztime 10s

# fuzz is the long-running campaign for bug hunting; failures land in
# fuzz-corpus/ as reproducible .lfz files (see DESIGN.md).
fuzz:
	$(GO) run ./cmd/lightfuzz -seeds 5000 -schedseeds 3 -duration 10m -corpus fuzz-corpus -v

# flake-smoke is the CI-sized flake-hunter gate: a fixed-seed perturbed
# campaign over the planted-bug flaky family. -expect 3 requires every
# planted bug to be caught, deduped to one signature, shrunk, and
# replay-verified (flaky-counter fails ~100% of perturbed runs at this
# intensity, the other two 35-90%, so 40 runs make a miss astronomically
# unlikely; see EXPERIMENTS.md).
flake-smoke:
	$(GO) run ./cmd/lightflake -runs 40 -seed 1 -intensity 40 -jobs 4 -expect 3

# lightd-smoke is the always-on daemon's crash drill (docs/OPERATIONS.md
# runbook, automated): build lightd, record a contended workload across
# >=3 epoch cuts, kill -9 the daemon, restart on the same data dir, verify
# WAL recovery sealed the interrupted epoch, replay the newest retained
# epoch with heap-fingerprint verification, and exercise every endpoint
# documented in the operator guide (the docs-honesty tests in the same
# package keep the guide and the route table in lockstep).
lightd-smoke:
	$(GO) test ./cmd/lightd/ -run 'TestLightdSmoke|TestEvery' -count=1

# stat-smoke drives the telemetry ledger and the lightstat dashboard end
# to end: boot lightd, cut >=3 epochs, check the /history row count, force
# a degraded->ok health transition through POST /slo, then render the same
# ledger live (GET /history) and cold (WAL scan after kill -9) and require
# the two row-for-row identical (docs/OPERATIONS.md, "Monitoring &
# alerting").
stat-smoke:
	$(GO) test ./cmd/lightstat/ -count=1

# examples-smoke runs every example program and fails on a non-zero exit.
# examples/solver must also print the Section 4.2 replay order
# c3 c4 c5 c1 c2 c6.
examples-smoke:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/cache4j > /dev/null
	$(GO) run ./examples/bugrepro > /dev/null
	out=$$($(GO) run ./examples/solver) || exit 1; \
	order=$$(printf '%s\n' "$$out" | sed -n 's/^ *[0-9]*\. \(c[0-9]\):.*/\1/p' | tr '\n' ' '); \
	test "$$order" = "c3 c4 c5 c1 c2 c6 " || { echo "examples/solver: replay order '$$order', want c3 c4 c5 c1 c2 c6"; exit 1; }
