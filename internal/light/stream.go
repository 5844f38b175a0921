package light

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/trace"
)

// Streaming schedule synthesis (DESIGN.md §4f).
//
// The batch path waits for Recorder.Finish and runs the synthesis core
// (synthesize, engine.go) over the whole log. But every generated
// constraint is per-location, locations cluster into timeline-SCC
// components (partition.go), and a component's constraint content is fully
// determined by the retired threads' dep/range buffers that mention its
// locations. So components can be solved while the recording is still
// running: each time a thread retires (ThreadExited hands over its final,
// immutable buffers), the solver folds the buffers into per-location item
// caches, recomputes the component decomposition, and runs the core on
// every component it has not seen before, keyed by a content fingerprint.
// The streaming solver only schedules core calls; it solves nothing itself.
//
// The per-retirement work is incremental. Each location keeps its
// per-thread buffer fragments (sorted by thread ID, the canonical order
// Recorder.Finish emits), and a retirement dirties only the locations its
// thread touched: those — and only those — re-collect their items and
// refresh their content hash. Variable-to-location ownership and the
// location union-find grow monotonically (an item, once handed over, never
// changes, and a later retirement can only add variables — a suppressed
// singleton write's variable survives as its dependence's anchor), so the
// sorted variable timeline is maintained by merge insertion and each round
// pays one O(vars) edge scan plus a Tarjan SCC pass — not a full rebuild.
//
// Speculation is validated, never trusted: a component is *closed* only
// when no live run can extend any of its clusters, and the solver cannot
// know that before the run ends (a live thread may yet touch one of the
// component's locations, or a dependence from a later-retiring thread may
// add a variable to a retired thread's chain and reroute the cluster
// graph). A speculative solution is therefore reused only when its
// component fingerprint — member locations plus their full item content —
// matches a final component exactly. A component is a whole cluster-graph
// SCC, so no hard path between two of its accesses leaves it: the core run
// on its items propagates the same forced edges, forms the same residual
// components with the same seeds and bridges, and chooses the same
// disjuncts as the batch run over the whole log. Finish translates every
// component's hard, forced and chosen edges into the timeline's node IDs
// and sorts once (smt.TopoOrderChains); the order depends only on the
// edges' transitive closure, so it is byte-identical to the batch schedule
// (pinned by TestStreamMatchesAuto and the lightfuzz stream oracle).
//
// Finish abandons speculation still in flight: a CDCL(T) search on a
// component of a partial recording can take far longer than the final
// components' (fewer hard edges leave more free choices), and its result
// is stale once the recording has ended. The abandoned search stores
// nothing, and Finish solves any final component left unsolved itself.
//
// With speculation off, or when the feed did not cover the log — the
// recorder detached the solver on an epoch reset, or a caller fed partial
// buffers — Finish runs the batch path on the log instead: nothing
// speculative is trusted, and the contract holds trivially.

// streamSpeculate gates the speculative component solves. Speculation only
// pays when a spare core can absorb it while the recording runs; in a
// single-CPU process every speculative solve — and even the per-retirement
// bookkeeping feeding it — lands on the serial critical path and can only
// delay Finish, so the solver then runs the batch path on the Finish tail.
// Package tests override this to pin both paths.
var streamSpeculate = runtime.GOMAXPROCS(0) > 1

// StreamSolver consumes a recording as it is produced and solves schedule
// components speculatively, so that by Finish only the epoch tail —
// components whose content changed after their speculative solve — is
// left on the critical path. Create one per recording with
// NewStreamSolver, attach it via Options.Stream (or feed it manually with
// ThreadRetired), then call Finish exactly once with the finished log.
type StreamSolver struct {
	jobs   int
	specOn bool

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []retiredThread
	closed bool

	done chan struct{}
	// spec is the context of speculative solves; Finish cancels it.
	spec       context.Context
	cancelSpec context.CancelFunc

	// Worker-owned incremental state; the worker goroutine has exclusive
	// access until done is closed, after which Finish (and Stats) may read
	// and extend it.

	// seenTids dedups retirements; nDeps/nRanges count the items handed
	// over, which Finish checks against the log to detect a partial feed.
	seenTids map[int32]bool
	nDeps    int
	nRanges  int

	// Per-location caches: the retired buffer fragments (per thread, in
	// thread-ID order), the items collected from them, and the item-content
	// hash. Only locations dirtied by a retirement are rebuilt.
	frags   map[int32]*locFrags
	itemsOf map[int32]*locItems
	hashOf  map[int32][32]byte

	// Clustering state, grown monotonically: locations get dense indices in
	// first-seen order, the union-find joins locations sharing a variable,
	// owner maps each variable to the location that first saw it, and
	// timeline holds every variable sorted by (thread, counter). newVars
	// stages variables discovered since the last timeline merge.
	locIdx   map[int32]int
	locIDs   []int32
	uf       *unionFind
	owner    map[trace.TC]int
	timeline []trace.TC
	newVars  []trace.TC

	solved map[[32]byte]*compSolution
	stats  StreamStats
}

// retiredThread is one thread's final dep/range buffers, handed over by
// the recorder at thread exit (immutable from then on).
type retiredThread struct {
	tid    int32
	deps   []trace.Dep
	ranges []trace.Range
}

// locFrags is one location's retired buffer fragments, one per
// contributing thread, kept sorted by thread ID so a rebuild concatenates
// them in the canonical order Recorder.Finish emits.
type locFrags struct {
	tids   []int32
	deps   [][]trace.Dep
	ranges [][]trace.Range
}

// StreamStats reports the streaming solver's speculation economy.
type StreamStats struct {
	// Rounds is the number of partitioner recomputations (one per retired
	// thread batch); SpecSolved counts components solved speculatively
	// during recording.
	Rounds     int
	SpecSolved int
	// Reused counts final components whose speculative solution survived
	// fingerprint validation; Stragglers were solved on the Finish tail
	// (after the recording ended — every component, when Finish ran the
	// batch path); Wasted speculative solutions matched no final component.
	Reused     int
	Stragglers int
	Wasted     int
	// FinishNS is the wall time of the Finish tail (validation, straggler
	// solves, and the topological merge) — the part of schedule synthesis
	// still on the time-to-first-replay critical path.
	FinishNS int64
}

// compSolution is the core's result for one component; spec records
// whether the solve ran speculatively (before Finish closed the stream).
type compSolution struct {
	spec bool
	syn  *synthesis
	err  error
}

// NewStreamSolver creates a streaming solver whose batch fallback uses a
// pool of the given size semantics (0 means GOMAXPROCS; like the batch
// path, the schedule is byte-identical for every value).
func NewStreamSolver(jobs int) *StreamSolver {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	s := &StreamSolver{
		jobs:     jobs,
		specOn:   streamSpeculate,
		done:     make(chan struct{}),
		seenTids: make(map[int32]bool),
		frags:    make(map[int32]*locFrags),
		itemsOf:  make(map[int32]*locItems),
		hashOf:   make(map[int32][32]byte),
		locIdx:   make(map[int32]int),
		uf:       newUnionFind(0),
		owner:    make(map[trace.TC]int),
		solved:   make(map[[32]byte]*compSolution),
	}
	s.cond = sync.NewCond(&s.mu)
	s.spec, s.cancelSpec = context.WithCancel(context.Background())
	if s.specOn {
		go s.worker()
	} else {
		// No speculation means Finish runs the batch path on the log, so
		// nothing consumes retirements: no worker goroutine, and
		// ThreadRetired drops the buffers — no wakeups, no context
		// switches during the record phase.
		close(s.done)
	}
	return s
}

// ThreadRetired hands the solver one thread's final buffers. The recorder
// calls it from ThreadExited; the slices must not be mutated afterwards.
// It never blocks on solving — work happens on the solver's goroutine.
func (s *StreamSolver) ThreadRetired(tid int32, deps []trace.Dep, ranges []trace.Range) {
	if !s.specOn {
		return // Finish runs the batch path on the log
	}
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, retiredThread{tid: tid, deps: deps, ranges: ranges})
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// worker drains retirement events and runs speculative rounds.
func (s *StreamSolver) worker() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		if len(batch) == 0 {
			if closed {
				return
			}
			continue
		}
		s.absorb(batch, closed)
	}
}

// absorb folds one batch of retirements into the caches and, when it
// dirtied any location, runs a round. tail marks batches drained after
// Finish closed the stream.
func (s *StreamSolver) absorb(batch []retiredThread, tail bool) {
	dirtySet := make(map[int32]bool)
	for _, rt := range batch {
		for _, loc := range s.ingest(rt) {
			dirtySet[loc] = true
		}
	}
	if len(dirtySet) == 0 {
		return
	}
	dirty := make([]int32, 0, len(dirtySet))
	for loc := range dirtySet {
		dirty = append(dirty, loc)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, loc := range dirty {
		s.rebuildLoc(loc)
	}
	s.round(tail)
}

// ingest splits one retirement's buffers into per-location fragments and
// returns the dirtied locations. It only files the fragments; rebuildLoc
// does the per-location work, so a batch that dirties a location twice
// still rebuilds it once.
func (s *StreamSolver) ingest(rt retiredThread) []int32 {
	if s.seenTids[rt.tid] {
		return nil
	}
	s.seenTids[rt.tid] = true
	s.nDeps += len(rt.deps)
	s.nRanges += len(rt.ranges)

	perDeps := make(map[int32][]trace.Dep)
	for _, d := range rt.deps {
		perDeps[d.Loc] = append(perDeps[d.Loc], d)
	}
	perRanges := make(map[int32][]trace.Range)
	for _, rg := range rt.ranges {
		perRanges[rg.Loc] = append(perRanges[rg.Loc], rg)
	}
	dirty := make([]int32, 0, len(perDeps)+len(perRanges))
	for loc := range perDeps {
		dirty = append(dirty, loc)
	}
	for loc := range perRanges {
		if _, ok := perDeps[loc]; !ok {
			dirty = append(dirty, loc)
		}
	}
	for _, loc := range dirty {
		f := s.frags[loc]
		if f == nil {
			f = &locFrags{}
			s.frags[loc] = f
		}
		pos := sort.Search(len(f.tids), func(i int) bool { return f.tids[i] >= rt.tid })
		f.tids = append(f.tids, 0)
		copy(f.tids[pos+1:], f.tids[pos:])
		f.tids[pos] = rt.tid
		f.deps = append(f.deps, nil)
		copy(f.deps[pos+1:], f.deps[pos:])
		f.deps[pos] = perDeps[loc]
		f.ranges = append(f.ranges, nil)
		copy(f.ranges[pos+1:], f.ranges[pos:])
		f.ranges[pos] = perRanges[loc]
	}
	return dirty
}

// collectLocItems is collectItems restricted to one location's fragments,
// walked in thread-ID order — exactly the item sequence the batch
// collector produces for this location from the final log. The
// restriction is sound because collectItems' processing — the item map,
// range containment, and singleton-write dedup — is independent per
// location.
func collectLocItems(f *locFrags) *locItems {
	li := &locItems{}
	for i := range f.tids {
		for _, rg := range f.ranges[i] {
			if rg.HasWrite {
				li.wbs = append(li.wbs, writeBearing{Thread: rg.Thread, Lo: rg.Start, Hi: rg.End})
			}
			if rg.StartsWithRead {
				hi := rg.End
				if rg.HasWrite {
					// Only the first access is known to read W; the rest of
					// the interval is protected by the range itself.
					hi = rg.Start
				}
				li.rcs = append(li.rcs, readClaim{W: rg.W, Thread: rg.Thread, Lo: rg.Start, Hi: hi})
			}
		}
	}
	for i := range f.tids {
		for _, d := range f.deps[i] {
			li.rcs = append(li.rcs, readClaim{W: d.W, Thread: d.R.Thread, Lo: d.R.Counter, Hi: d.R.Counter})
			li.addSource(d.W)
		}
	}
	for i := range f.tids {
		for _, rg := range f.ranges[i] {
			if rg.StartsWithRead {
				li.addSource(rg.W)
			}
		}
	}
	return li
}

// rebuildLoc re-collects one dirtied location's items from its fragments,
// refreshes its content hash, and registers any newly discovered variables
// with the clustering state.
func (s *StreamSolver) rebuildLoc(loc int32) {
	li := collectLocItems(s.frags[loc])
	s.itemsOf[loc] = li
	s.hashOf[loc] = hashLocItems(loc, li)

	// File the location with the clustering state: a dense index on first
	// sight, then every variable either unions this location with the
	// variable's owner or is claimed and staged for the timeline merge. A
	// rebuilt location's variable set only grows (see the package comment),
	// so re-registering re-unions the old members — harmless — and stages
	// only the new ones.
	idx, ok := s.locIdx[loc]
	if !ok {
		idx = len(s.locIDs)
		s.locIdx[loc] = idx
		s.locIDs = append(s.locIDs, loc)
		s.uf.parent = append(s.uf.parent, idx)
	}
	locVarSet(li, func(tc trace.TC) {
		if j, ok := s.owner[tc]; ok {
			s.uf.union(idx, j)
		} else {
			s.owner[tc] = idx
			s.newVars = append(s.newVars, tc)
		}
	})
}

// mergeTimeline folds the staged variables into the sorted timeline.
func (s *StreamSolver) mergeTimeline() {
	if len(s.newVars) == 0 {
		return
	}
	sortTCs(s.newVars)
	merged := make([]trace.TC, 0, len(s.timeline)+len(s.newVars))
	i, j := 0, 0
	for i < len(s.timeline) && j < len(s.newVars) {
		a, b := s.timeline[i], s.newVars[j]
		if a.Thread < b.Thread || (a.Thread == b.Thread && a.Counter < b.Counter) {
			merged = append(merged, a)
			i++
		} else {
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, s.timeline[i:]...)
	merged = append(merged, s.newVars[j:]...)
	s.timeline = merged
	s.newVars = s.newVars[:0]
}

// partition computes the current component decomposition: the variable-
// sharing clusters glued by timeline SCCs, against the incrementally
// maintained state. The SCC collapse runs on a scratch union-find so the
// persistent clustering stays purely variable-driven. Groups hold sorted
// location IDs and appear in order of their smallest member, independent
// of retirement order.
func (s *StreamSolver) partition() [][]int32 {
	s.mergeTimeline()
	n := len(s.locIDs)
	if n == 0 {
		return nil
	}
	var edges []compEdge
	for k := 0; k+1 < len(s.timeline); k++ {
		a, b := s.timeline[k], s.timeline[k+1]
		if a.Thread != b.Thread {
			continue
		}
		fa, fb := s.uf.find(s.owner[a]), s.uf.find(s.owner[b])
		if fa != fb {
			edges = append(edges, compEdge{fa, fb})
		}
	}
	super := newUnionFind(n)
	for i := 0; i < n; i++ {
		super.union(i, s.uf.find(i))
	}
	for _, scc := range stronglyConnected(n, edges) {
		for i := 1; i < len(scc); i++ {
			super.union(scc[0], scc[i])
		}
	}
	sorted := append([]int32(nil), s.locIDs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	groupOf := make(map[int]int)
	var groups [][]int32
	for _, loc := range sorted {
		root := super.find(s.locIdx[loc])
		gi, ok := groupOf[root]
		if !ok {
			gi = len(groups)
			groupOf[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], loc)
	}
	return groups
}

// solve runs the synthesis core on one component's items; a speculative
// solve gives up once Finish cancels speculation.
func (s *StreamSolver) solve(locs []int32, spec bool) *compSolution {
	items := make(map[int32]*locItems, len(locs))
	for _, loc := range locs {
		items[loc] = s.itemsOf[loc]
	}
	ctx := context.Background()
	if spec {
		ctx = s.spec
	}
	syn, _, err := synthesize(ctx, items, 1)
	return &compSolution{spec: spec, syn: syn, err: err}
}

// round recomputes the component decomposition and solves every component
// fingerprint not seen before. tail marks rounds that run after Finish
// closed the queue: their solves are on the critical path (stragglers),
// not speculation. A fingerprint missing from the current decomposition
// can never return — item content only grows and SCCs only merge — so its
// solution is dropped.
func (s *StreamSolver) round(tail bool) {
	s.stats.Rounds++
	live := make(map[[32]byte]bool)
	for _, locs := range s.partition() {
		fp := s.groupFP(locs)
		live[fp] = true
		if _, ok := s.solved[fp]; ok {
			continue
		}
		sol := s.solve(locs, !tail)
		if errors.Is(sol.err, context.Canceled) {
			return // Finish abandoned speculation and solves what is missing
		}
		s.solved[fp] = sol
		if tail {
			s.stats.Stragglers++
		} else {
			s.stats.SpecSolved++
		}
	}
	for fp := range s.solved {
		if !live[fp] {
			delete(s.solved, fp)
		}
	}
}

// Finish completes the stream: it waits for the worker to drain, validates
// that the feed covered the whole log, and merges the component solutions
// into the final schedule — the worker's final round already solved every
// current component fingerprint, so the tail is normally just the merge.
// With speculation off or a partial feed it runs the batch path instead.
// Either way the result is byte-identical to ComputeSchedule on the log.
func (s *StreamSolver) Finish(log *trace.Log) (*Schedule, error) {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancelSpec()
	<-s.done

	finishStart := time.Now()
	span := obs.StartSpan("stream-finish")
	var sched *Schedule
	var err error
	if s.specOn && s.nDeps == len(log.Deps) && s.nRanges == len(log.Ranges) {
		sched, err = s.merge(log, finishStart)
	} else {
		sched, err = ComputeScheduleJobs(log, s.jobs)
		if err == nil {
			s.stats.Stragglers = sched.Stats.Components
		}
	}
	s.stats.Wasted = s.stats.SpecSolved - s.stats.Reused
	s.stats.FinishNS = time.Since(finishStart).Nanoseconds()
	span.End()
	if obs.Enabled() {
		mStreamRuns.Inc()
		mStreamSpecSolved.Add(uint64(s.stats.SpecSolved))
		mStreamReused.Add(uint64(s.stats.Reused))
		mStreamStragglers.Add(uint64(s.stats.Stragglers))
		mStreamWasted.Add(uint64(s.stats.Wasted))
		mStreamFinishNS.Observe(s.stats.FinishNS)
	}
	return sched, err
}

// merge looks up every final component's solution (solving any whose
// speculative solve was abandoned), translates its edges into the
// timeline's node IDs, and sorts once.
func (s *StreamSolver) merge(log *trace.Log, start time.Time) (*Schedule, error) {
	groups := s.partition()
	g := indexSorted(s.timeline)
	chains := g.chainSizes()
	var stats ScheduleStats
	var hard, extra [][2]int32
	for _, locs := range groups {
		fp := s.groupFP(locs)
		sol, ok := s.solved[fp]
		switch {
		case !ok:
			// The worker's speculative solve of this component was
			// abandoned when Finish began.
			sol = s.solve(locs, false)
			s.stats.Stragglers++
		case sol.spec:
			s.stats.Reused++
		}
		if sol.err != nil {
			return nil, sol.err
		}
		syn := sol.syn
		node := make([]int32, len(syn.vars))
		for i, tc := range syn.vars {
			node[i] = g.node(tc)
		}
		for _, e := range syn.hard {
			hard = append(hard, [2]int32{node[e[0]], node[e[1]]})
		}
		for _, es := range [][][2]int32{syn.forced, syn.chosen} {
			for _, e := range es {
				extra = append(extra, [2]int32{node[e[0]], node[e[1]]})
			}
		}
		cs := &syn.stats
		stats.Conjunctive += len(syn.hard)
		stats.Disjunctions += cs.Disjunctions
		stats.Resolved += cs.Resolved
		stats.Components += cs.Components
		stats.FastpathComponents += cs.FastpathComponents
		stats.LargestComponent = max(stats.LargestComponent, cs.LargestComponent)
		stats.CacheHits += cs.CacheHits
		stats.CacheMisses += cs.CacheMisses
		stats.SolveBusyNS += cs.SolveBusyNS
		stats.Solver.Add(cs.Solver)
	}
	for _, size := range chains {
		stats.Conjunctive += size - 1 // the implicit program-order chain edges
	}

	order, ok := smt.TopoOrderChains(chains, hard, extra)
	if !ok {
		return nil, fmt.Errorf("light: internal error: streamed schedule merge produced a cycle (%d components, %d forced and chosen edges)", len(groups), len(extra))
	}
	tcs := make([]trace.TC, len(order))
	for i, n := range order {
		tcs[i] = g.vars[n]
	}
	stats.IntVars = len(g.vars)
	stats.ParallelSolveNS = time.Since(start).Nanoseconds()
	stats.SolveJobs = s.jobs
	stats.SolveWorkers = 1
	observeSolve(&stats)
	return newSchedule(log, tcs, stats), nil
}

// Stats reports the speculation counters; valid after Finish returns.
func (s *StreamSolver) Stats() StreamStats { return s.stats }

// groupFP content-addresses one component as the hash of its members'
// (location, item-content-hash) pairs in location order. Two equal
// fingerprints mean the components' item sets are identical, which is the
// reuse criterion for speculative solutions.
func (s *StreamSolver) groupFP(locs []int32) [32]byte {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	u := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	u(uint64(len(locs)))
	for _, loc := range locs {
		u(uint64(uint32(loc)))
		hl := s.hashOf[loc]
		h.Write(hl[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// hashLocItems content-addresses one location's complete item sequence.
// Equal hashes mean the location generates byte-identical constraints, so
// a component fingerprint over member (location, hash) pairs certifies
// that the component's item sets match (see groupFP).
func hashLocItems(loc int32, li *locItems) [32]byte {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	u := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	tc := func(t trace.TC) {
		u(uint64(uint32(t.Thread)))
		u(t.Counter)
	}
	u(uint64(uint32(loc)))
	u(uint64(len(li.rcs)))
	for _, rc := range li.rcs {
		tc(rc.W)
		u(uint64(uint32(rc.Thread)))
		u(rc.Lo)
		u(rc.Hi)
	}
	u(uint64(len(li.wbs)))
	for _, wb := range li.wbs {
		u(uint64(uint32(wb.Thread)))
		u(wb.Lo)
		u(wb.Hi)
		if wb.Singleton {
			u(1)
		} else {
			u(0)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ComputeScheduleStreamed is the offline form of the streaming solver: it
// replays the log's per-thread buffers through a StreamSolver in thread-ID
// order, as if every thread retired in turn, then finishes. Differential
// tests and the lightfuzz stream oracle use it to pin the streamed schedule
// byte-identical to ComputeSchedule without re-running the program.
func ComputeScheduleStreamed(log *trace.Log, jobs int) (*Schedule, error) {
	ss := NewStreamSolver(jobs)
	for _, rt := range retirements(log) {
		ss.ThreadRetired(rt.tid, rt.deps, rt.ranges)
	}
	return ss.Finish(log)
}

// retirements splits the log into per-thread buffers in thread-ID order.
func retirements(log *trace.Log) []retiredThread {
	deps := make(map[int32][]trace.Dep)
	ranges := make(map[int32][]trace.Range)
	seen := make(map[int32]bool)
	var tids []int32
	touch := func(tid int32) {
		if !seen[tid] {
			seen[tid] = true
			tids = append(tids, tid)
		}
	}
	for _, d := range log.Deps {
		deps[d.R.Thread] = append(deps[d.R.Thread], d)
		touch(d.R.Thread)
	}
	for _, rg := range log.Ranges {
		ranges[rg.Thread] = append(ranges[rg.Thread], rg)
		touch(rg.Thread)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	rts := make([]retiredThread, len(tids))
	for i, tid := range tids {
		rts[i] = retiredThread{tid: tid, deps: deps[tid], ranges: ranges[tid]}
	}
	return rts
}
