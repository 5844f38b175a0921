package light

import (
	"crypto/sha256"
	"encoding/binary"
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
// The batch engine waits for Recorder.Finish, builds the whole Section 4.2
// system, and pays one global propagation + reachability pass. But every
// generated constraint is per-location, locations cluster into components
// (partition.go), and a component's constraint content is fully determined
// by the retired threads' dep/range buffers that mention its locations. So
// components can be solved while the recording is still running: each time
// a thread retires (ThreadExited hands over its final, immutable buffers),
// the solver folds the buffers into per-location caches, recomputes the
// component decomposition, and speculatively discharges every component it
// has not seen before, keyed by a content fingerprint.
//
// The per-retirement work is incremental, which is what bounds the epoch
// tail. Each location keeps its per-thread buffer fragments (sorted by
// thread ID, the canonical order Recorder.Finish emits), and a retirement
// dirties only the locations its thread touched: those — and only those —
// re-collect their items, regenerate their locSys (buildLocSys), and
// refresh their content hash. Variable-to-location ownership and the
// location union-find grow monotonically (an item, once handed over, never
// changes, and a later retirement can only add variables — a suppressed
// singleton write's variable survives as its dependence's anchor), so the
// sorted variable timeline is maintained by merge insertion and each round
// pays one O(vars) edge scan plus a Tarjan SCC pass — not a full system
// rebuild. Finish then assembles the final system directly from the caches:
// the timeline *is* the sorted variable list, the per-location conjunctive
// edges are already generated, and every component fingerprint was solved
// by the worker's final round, so the tail is one topological merge.
//
// Speculation is validated, never trusted: a component is *closed* only
// when no live run can extend any of its clusters, and the solver cannot
// know that before the run ends (a live thread may yet touch one of the
// component's locations, or a dependence from a later-retiring thread may
// add a variable to a retired thread's chain and reroute the cluster
// graph). A speculative solution is therefore reused only when its
// component fingerprint — member locations plus their full item content —
// matches a final component exactly. A matching fingerprint means the
// subsystem the speculative solve saw is byte-identical to the one the
// batch engine would build for that component, so propagation forces the
// same edges, the same residual disjunctions go to CDCL(T) with the same
// seeds and bridges, and the same disjuncts are chosen. The final schedule
// is one deterministic topological merge (smt.TopoOrderChains) of the
// per-thread chains, the conjunctive edges, the per-component forced
// edges, and the chosen disjuncts — which skips the global reachability
// matrix entirely, the step that dominates batch solve time. The result is
// byte-identical to the batch auto engine's schedule (pinned by
// TestStreamMatchesAuto and the lightfuzz stream oracle).
//
// If the feed did not cover the log — the recorder detached the solver on
// an epoch reset, or a caller fed partial buffers — Finish detects the
// mismatch by item count and falls back to the batch engine wholesale:
// nothing speculative is trusted, and the contract (byte identity with the
// batch schedule) holds trivially.

// streamSpeculate gates the worker's speculative component solves.
// Speculation only pays when a spare core can absorb it while the
// recording runs; in a single-CPU process every speculative solve — and
// even the per-retirement incremental assembly feeding it — lands on the
// serial critical path and can only delay Finish. With speculation off
// the worker merely counts feed coverage and the whole system is built
// once on the Finish tail (assembleFromLog), which still beats the batch
// engine: the streaming partitioner replaces the residual-partition and
// global-reachability passes. Package tests override this to pin both
// paths.
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

	// Worker-owned incremental state; the worker goroutine has exclusive
	// access until done is closed, after which Finish (and Stats) may read
	// and extend it.

	// seenTids dedups retirements; nDeps/nRanges count the items handed
	// over, which Finish checks against the log to detect a partial feed.
	seenTids map[int32]bool
	nDeps    int
	nRanges  int

	// Per-location caches: the retired buffer fragments (per thread, in
	// thread-ID order), the generated constraints, and the item-content
	// hash. Only locations dirtied by a retirement are rebuilt. With
	// speculation off the fragment path is bypassed entirely: Finish
	// assembles every location once, straight from the log.
	frags  map[int32]*locFrags
	sysOf  map[int32]*locSys
	hashOf map[int32][32]byte

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

	solved map[[32]byte]*sccSolution
	sv     *smt.Solver
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
	// (after the recording ended); Wasted speculative solutions matched no
	// final component.
	Reused     int
	Stragglers int
	Wasted     int
	// FinishNS is the wall time of the Finish tail (validation, straggler
	// solves, and the topological merge) — the part of schedule synthesis
	// still on the time-to-first-replay critical path.
	FinishNS int64
}

// NewStreamSolver creates a streaming solver whose straggler solves use a
// pool of the given size semantics (0 means GOMAXPROCS; like the batch
// engine, the schedule is byte-identical for every value).
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
		sysOf:    make(map[int32]*locSys),
		hashOf:   make(map[int32][32]byte),
		locIdx:   make(map[int32]int),
		uf:       newUnionFind(0),
		owner:    make(map[trace.TC]int),
		solved:   make(map[[32]byte]*sccSolution),
		sv:       smt.NewSolver(),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.specOn {
		go s.worker()
	} else {
		// No speculation means nothing consumes retirements while the run
		// is live, so no worker goroutine either: ThreadRetired just queues
		// the buffers and Finish drains them inline. The record phase then
		// pays only a mutexed append per thread exit — no wakeups, no
		// context switches.
		close(s.done)
	}
	return s
}

// ThreadRetired hands the solver one thread's final buffers. The recorder
// calls it from ThreadExited; the slices must not be mutated afterwards.
// It never blocks on solving — work happens on the solver's goroutine.
func (s *StreamSolver) ThreadRetired(tid int32, deps []trace.Dep, ranges []trace.Range) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, retiredThread{tid: tid, deps: deps, ranges: ranges})
		if s.specOn {
			s.cond.Signal()
		}
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
		dirtySet := make(map[int32]bool)
		for _, rt := range batch {
			for _, loc := range s.ingest(rt) {
				dirtySet[loc] = true
			}
		}
		if len(dirtySet) == 0 {
			continue
		}
		dirty := make([]int32, 0, len(dirtySet))
		for loc := range dirtySet {
			dirty = append(dirty, loc)
		}
		sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
		for _, loc := range dirty {
			s.rebuildLoc(loc)
		}
		s.round(closed)
	}
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

// collectLocItems is collectItemsFrom restricted to one location's
// fragments, walked in thread-ID order — exactly the item sequence the
// batch collector produces for this location from the final log. The
// restriction is sound because collectItemsFrom's processing — the item
// map, range containment, and singleton-write dedup — is independent per
// location; specializing drops the map machinery from the per-rebuild
// hot path (small inputs dedup by linear scan, spilling to a map only
// past 32 singleton writes).
func collectLocItems(f *locFrags) *locItems {
	li := &locItems{}
	var inRange []trace.Range // hasWrite ranges, for singleton suppression
	for i := range f.tids {
		for _, rg := range f.ranges[i] {
			if rg.HasWrite {
				li.wbs = append(li.wbs, writeBearing{Thread: rg.Thread, Lo: rg.Start, Hi: rg.End})
				inRange = append(inRange, rg)
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
	var seenW []trace.TC
	var seenWMap map[trace.TC]bool
	addSource := func(w trace.TC) {
		if w.IsInitial() {
			return
		}
		for _, rg := range inRange {
			if rg.Thread == w.Thread && rg.Start <= w.Counter && w.Counter <= rg.End {
				return // contained in a write-bearing range of its thread
			}
		}
		if seenWMap != nil {
			if seenWMap[w] {
				return
			}
			seenWMap[w] = true
		} else {
			for _, p := range seenW {
				if p == w {
					return
				}
			}
			seenW = append(seenW, w)
			if len(seenW) == 32 {
				seenWMap = make(map[trace.TC]bool, 64)
				for _, p := range seenW {
					seenWMap[p] = true
				}
			}
		}
		li.wbs = append(li.wbs, writeBearing{
			Thread: w.Thread, Lo: w.Counter, Hi: w.Counter,
			Singleton: true,
		})
	}
	for i := range f.tids {
		for _, d := range f.deps[i] {
			li.rcs = append(li.rcs, readClaim{W: d.W, Thread: d.R.Thread, Lo: d.R.Counter, Hi: d.R.Counter})
			addSource(d.W)
		}
	}
	for i := range f.tids {
		for _, rg := range f.ranges[i] {
			if rg.StartsWithRead {
				addSource(rg.W)
			}
		}
	}
	return li
}

// rebuildLoc re-collects one dirtied location's items from its fragments,
// regenerates its constraints and (when speculating) content hash, and
// registers any newly discovered variables with the clustering state.
func (s *StreamSolver) rebuildLoc(loc int32) {
	li := collectLocItems(s.frags[loc])
	ls := buildLocSys(loc, li)
	s.sysOf[loc] = ls
	if s.specOn {
		// The content hash only exists to validate speculative reuse; with
		// speculation off nothing is ever looked up by fingerprint.
		s.hashOf[loc] = hashLocItems(loc, li)
	}

	s.registerLoc(loc, ls)
}

// registerLoc files one location's (re)generated system with the
// clustering state: a dense index on first sight, then every variable
// either unions this location with the variable's owner or is claimed and
// staged for the timeline merge. A rebuilt location's variable set only
// grows (see the package comment), so re-registering re-unions the old
// members — harmless — and stages only the new ones.
func (s *StreamSolver) registerLoc(loc int32, ls *locSys) {
	idx, ok := s.locIdx[loc]
	if !ok {
		idx = len(s.locIDs)
		s.locIdx[loc] = idx
		s.locIDs = append(s.locIDs, loc)
		s.uf.parent = append(s.uf.parent, idx)
	}
	for _, tc := range ls.vars {
		if j, ok := s.owner[tc]; ok {
			s.uf.union(idx, j)
		} else {
			s.owner[tc] = idx
			s.newVars = append(s.newVars, tc)
		}
	}
}

// assembleFromLog builds every location's system and the clustering state
// in one pass over the finished log — the speculation-off tail. With no
// speculative consumer, per-retirement assembly buys nothing on a single
// CPU, so the worker only counts coverage and the whole build runs here,
// collected by the batch collector itself: each location's items, and
// hence its constraints, are identical to what the fragment path
// concatenates, because the fragments are exactly the log's buffers split
// per location.
func (s *StreamSolver) assembleFromLog(log *trace.Log) {
	items := collectItems(log)
	locs := make([]int32, 0, len(items))
	for loc := range items {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	for _, loc := range locs {
		ls := buildLocSys(loc, items[loc])
		s.sysOf[loc] = ls
		s.registerLoc(loc, ls)
	}
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
// sharing clusters glued by timeline SCCs, exactly streamPartition's rule
// over the same data, but against the incrementally maintained state. The
// SCC collapse runs on a scratch union-find so the persistent clustering
// stays purely variable-driven. Groups hold sorted location IDs and appear
// in order of their smallest member — the same deterministic order
// streamPartition produces, independent of retirement order.
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

// groupFP content-addresses one component as the hash of its members'
// (location, item-content-hash) pairs in location order. Two equal
// fingerprints mean the assembled subsystems are byte-identical, which is
// the reuse criterion for speculative solutions.
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

// assembleSub builds one component's subsystem from the per-location
// caches. locs must be sorted, so sub.locs matches the location order
// buildSystem emits; solveSCCSystem consumes only the per-location
// breakdown and the variable list, both of which are cached verbatim.
// Callers that already hold the subsystem's node index pass withVars
// false to skip building the sorted variable list.
func (s *StreamSolver) assembleSub(locs []int32, withVars bool) *system {
	sub := &system{}
	for _, loc := range locs {
		ls := s.sysOf[loc]
		sub.locs = append(sub.locs, ls)
		if withVars {
			sub.vars = append(sub.vars, ls.vars...)
		}
	}
	sortTCs(sub.vars)
	sub.vars = dedupTCs(sub.vars)
	return sub
}

// round recomputes the component decomposition and solves every component
// fingerprint not seen before. tail marks rounds that run after Finish
// closed the queue: their solves are on the critical path (stragglers),
// not speculation.
func (s *StreamSolver) round(tail bool) {
	s.stats.Rounds++
	for _, locs := range s.partition() {
		fp := s.groupFP(locs)
		if _, ok := s.solved[fp]; ok {
			continue
		}
		sol := solveSCCSystem(s.assembleSub(locs, true), s.sv)
		sol.fp = fp
		sol.spec = !tail
		s.solved[fp] = sol
		if tail {
			s.stats.Stragglers++
		} else {
			s.stats.SpecSolved++
		}
	}
}

// Finish completes the stream: it waits for the worker to drain, validates
// that the feed covered the whole log, and assembles the final schedule
// from the per-location caches — the timeline is already the sorted
// variable list and the worker's final round already solved every current
// component fingerprint, so the tail is normally just the topological
// merge. The result is byte-identical to computeScheduleAuto on the same
// log; a partial feed falls back to that engine outright.
func (s *StreamSolver) Finish(log *trace.Log) (*Schedule, error) {
	s.mu.Lock()
	s.closed = true
	var pending []retiredThread
	if s.specOn {
		s.cond.Broadcast()
	} else {
		pending = s.queue
		s.queue = nil
	}
	s.mu.Unlock()
	<-s.done
	for _, rt := range pending {
		// Worker-less (speculation-off) drain: only coverage accounting is
		// needed before the count check below.
		if !s.seenTids[rt.tid] {
			s.seenTids[rt.tid] = true
			s.nDeps += len(rt.deps)
			s.nRanges += len(rt.ranges)
		}
	}

	finishStart := time.Now()
	solveSpan := obs.StartSpan("stream-finish")

	if s.nDeps != len(log.Deps) || s.nRanges != len(log.Ranges) {
		// The feed did not cover the log: the recorder detached the solver
		// (an epoch reset) or the caller fed partial buffers. No speculative
		// result is trustworthy, so solve the log with the batch engine the
		// streamed schedule is defined to match.
		s.stats.Wasted = s.stats.SpecSolved
		sched, err := computeScheduleAuto(log, s.jobs)
		s.stats.FinishNS = time.Since(finishStart).Nanoseconds()
		solveSpan.End()
		if obs.Enabled() {
			mStreamRuns.Inc()
			mStreamWasted.Add(uint64(s.stats.Wasted))
			mStreamFinishNS.Observe(s.stats.FinishNS)
		}
		return sched, err
	}

	if !s.specOn {
		s.assembleFromLog(log)
	}

	groups := s.partition()
	g := indexSorted(s.timeline)

	used := make([]*sccSolution, 0, len(groups))
	for _, locs := range groups {
		if len(s.solved) > 0 {
			fp := s.groupFP(locs)
			if sol, ok := s.solved[fp]; ok {
				if sol.spec {
					s.stats.Reused++
				}
				used = append(used, sol)
				continue
			}
			// Unreachable in practice with speculation on — the worker's
			// final round solved every current fingerprint — but solve
			// rather than fail if it ever isn't.
			s.stats.Stragglers++
			sol := solveSCCSystem(s.assembleSub(locs, true), s.sv)
			sol.fp = fp
			s.solved[fp] = sol
			used = append(used, sol)
			continue
		}
		// Speculation off: every component is solved here, on the tail.
		// No fingerprint is needed (there is nothing to match against),
		// and a component spanning every location has the timeline as its
		// sorted variable list, so the index above is reused as-is.
		s.stats.Stragglers++
		var sol *sccSolution
		if len(locs) == len(s.locIDs) {
			sol = solveSCCSystemIdx(s.assembleSub(locs, false), g, s.sv)
		} else {
			sol = solveSCCSystem(s.assembleSub(locs, true), s.sv)
		}
		used = append(used, sol)
	}
	s.stats.Wasted = s.stats.SpecSolved - s.stats.Reused

	var stats ScheduleStats
	sortedLocs := append([]int32(nil), s.locIDs...)
	sort.Slice(sortedLocs, func(i, j int) bool { return sortedLocs[i] < sortedLocs[j] })
	var hard [][2]int32
	for _, loc := range sortedLocs {
		ls := s.sysOf[loc]
		for _, e := range ls.conj {
			hard = append(hard, [2]int32{g.node(e[0]), g.node(e[1])})
		}
		stats.Conjunctive += len(ls.conj)
		stats.Disjunctions += len(ls.disj)
	}
	chains := g.chainSizes()
	for _, sz := range chains {
		stats.Conjunctive += sz - 1 // the implicit program-order chain edges
	}

	var extra [][2]int32
	for _, sol := range used {
		if sol.err != nil {
			return nil, sol.err
		}
		for _, e := range sol.forced {
			hard = append(hard, [2]int32{g.node(e[0]), g.node(e[1])})
		}
		for _, e := range sol.chosen {
			extra = append(extra, [2]int32{g.node(e[0]), g.node(e[1])})
		}
		stats.Resolved += sol.resolved
		stats.Components += sol.groups
		stats.FastpathComponents += sol.groups - sol.cdclComps
		if sol.largest > stats.LargestComponent {
			stats.LargestComponent = sol.largest
		}
		stats.CacheHits += sol.cacheHits
		stats.CacheMisses += sol.cacheMisses
		stats.SolveBusyNS += sol.busyNS
		stats.Solver.Add(sol.solver)
	}

	order, ok := smt.TopoOrderChains(chains, hard, extra)
	if !ok {
		return nil, fmt.Errorf("light: internal error: streamed schedule merge produced a cycle (%d components, %d chosen edges)", len(groups), len(extra))
	}

	stats.IntVars = len(g.vars)
	s.stats.FinishNS = time.Since(finishStart).Nanoseconds()
	stats.ParallelSolveNS = s.stats.FinishNS
	stats.SolveJobs = s.jobs
	stats.SolveWorkers = 1

	sched := &Schedule{
		Log:      log,
		Order:    make([]trace.TC, len(order)),
		Pos:      make(map[trace.TC]int, len(order)),
		RangeEnd: make(map[trace.TC]uint64),
		Stats:    stats,
	}
	for i, idx := range order {
		sched.Order[i] = g.vars[idx]
		sched.Pos[g.vars[idx]] = i
	}
	for _, rg := range log.Ranges {
		sched.RangeEnd[trace.TC{Thread: rg.Thread, Counter: rg.Start}] = rg.End
	}
	solveSpan.SetItems(int64(len(groups)))
	solveSpan.End()
	if obs.Enabled() {
		mSolveRuns.Inc()
		mSolveIntVars.Add(uint64(stats.IntVars))
		mSolveDisjunctions.Add(uint64(stats.Disjunctions))
		mSolveResolved.Add(uint64(stats.Resolved))
		mSolveComponents.Observe(int64(stats.Components))
		mSolveFastpathComponents.Add(uint64(stats.FastpathComponents))
		mSolveCacheHits.Add(uint64(stats.CacheHits))
		mSolveCacheMisses.Add(uint64(stats.CacheMisses))
		mSolveFastpathRate.Set(stats.FastpathRate())
		mStreamRuns.Inc()
		mStreamSpecSolved.Add(uint64(s.stats.SpecSolved))
		mStreamReused.Add(uint64(s.stats.Reused))
		mStreamStragglers.Add(uint64(s.stats.Stragglers))
		mStreamWasted.Add(uint64(s.stats.Wasted))
		mStreamFinishNS.Observe(s.stats.FinishNS)
	}
	return sched, nil
}

// Stats reports the speculation counters; valid after Finish returns.
func (s *StreamSolver) Stats() StreamStats { return s.stats }

// sccSolution is the solved state of one component's subsystem: the
// propagation-forced edges, the CDCL-chosen disjuncts, and the effort
// counters the final schedule's stats aggregate. spec records whether the
// solve ran speculatively (before Finish closed the stream).
type sccSolution struct {
	fp          [32]byte
	spec        bool
	forced      [][2]trace.TC
	chosen      [][2]trace.TC
	resolved    int
	groups      int
	cdclComps   int
	largest     int
	cacheHits   int
	cacheMisses int
	busyNS      int64
	solver      smt.Stats
	err         error
}

// solveSCCSystem discharges one component subsystem exactly the way the
// batch engine would treat those locations inside its global pass:
// propagate the hard edges and disjunctions to fixpoint, merge the
// residual-bearing clusters into one CDCL component (the subsystem *is*
// one timeline SCC, so that is precisely partitionResidual's merge rule
// restricted to it), seed forced edges and global-partial-order bridges,
// and record the chosen disjunct per residual disjunction. Because every
// constraint is location-local and a component's chains and reachability
// are self-contained (see the soundness argument in DESIGN.md §4f), the
// forced and chosen edge sets equal the batch engine's restriction to
// this component whenever the item content matches.
func solveSCCSystem(sub *system, sv *smt.Solver) *sccSolution {
	return solveSCCSystemIdx(sub, indexSorted(sub.vars), sv)
}

// solveSCCSystemIdx is solveSCCSystem against a caller-built node index,
// for callers that already hold the subsystem's sorted variable list (the
// Finish tail's global component reuses the timeline index instead of
// re-sorting every variable). g must index exactly sub's variable set.
func solveSCCSystemIdx(sub *system, g *denseIndex, sv *smt.Solver) *sccSolution {
	sol := &sccSolution{}
	start := time.Now()
	defer func() { sol.busyNS = time.Since(start).Nanoseconds() }()

	eng := smt.NewOrderEngine(g.chainSizes())
	for _, ls := range sub.locs {
		for _, e := range ls.conj {
			eng.AddEdge(g.node(e[0]), g.node(e[1]))
		}
	}
	// disjAt maps a disjunction index back to its location and its
	// position in that location's list.
	type disjAt struct{ li, i int32 }
	var disjLoc []disjAt
	for li, ls := range sub.locs {
		for i, d := range ls.disj {
			eng.AddDisjunction(smt.OrderDisjunction{
				A1: g.node(d.a1), B1: g.node(d.b1),
				A2: g.node(d.a2), B2: g.node(d.b2),
			})
			disjLoc = append(disjLoc, disjAt{int32(li), int32(i)})
		}
	}
	out := eng.Propagate()
	if out.Unsat {
		sol.err = fmt.Errorf("light: replay constraint system unsatisfiable (propagation over %d vars, %d disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			len(g.vars), len(disjLoc))
		return sol
	}
	sol.resolved = out.Resolved
	for _, e := range out.Forced {
		sol.forced = append(sol.forced, [2]trace.TC{g.vars[e[0]], g.vars[e[1]]})
	}
	if len(out.Residual) == 0 {
		// Propagation decided everything: no CDCL component forms, every
		// cluster is a fastpath group. Accesses are per-location, so the
		// variable-sharing clusters are exactly the member locations — the
		// same counts buildClusters would report, without paying for it.
		// This is the hot exit: on choice-free workloads it keeps the final
		// tail solve at propagation cost.
		sol.groups = len(sub.locs)
		for _, ls := range sub.locs {
			if len(ls.vars) > sol.largest {
				sol.largest = len(ls.vars)
			}
		}
		return sol
	}

	// Grouping within the component: residual-bearing clusters merge into
	// one CDCL component, choice-free clusters stay fastpath singleton
	// groups (partitionResidual's rule, with the SCC loop already implied
	// by the component boundary).
	residualLoc := make([]bool, len(sub.locs))
	for _, di := range out.Residual {
		residualLoc[disjLoc[di].li] = true
	}
	cg := buildClusters(sub)
	anchor := -1
	for i := range sub.locs {
		if residualLoc[i] {
			if anchor < 0 {
				anchor = i
			} else {
				cg.uf.union(anchor, i)
			}
		}
	}
	groupOf := make(map[int]int)
	var groups [][]int
	for i := range sub.locs {
		root := cg.uf.find(i)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(groups)
			groupOf[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	sol.groups = len(groups)

	groupVars := make([][]trace.TC, len(groups))
	for gi, locs := range groups {
		var vs []trace.TC
		for _, li := range locs {
			vs = append(vs, sub.locs[li].vars...)
		}
		sortTCs(vs)
		groupVars[gi] = dedupTCs(vs)
		if len(groupVars[gi]) > sol.largest {
			sol.largest = len(groupVars[gi])
		}
	}
	groupOfLoc := make([]int, len(sub.locs))
	for gi, locs := range groups {
		for _, li := range locs {
			groupOfLoc[li] = gi
		}
	}
	residualOfGroup := make([][]int32, len(groups))
	for _, di := range out.Residual {
		gi := groupOfLoc[disjLoc[di].li]
		residualOfGroup[gi] = append(residualOfGroup[gi], di)
	}

	var comps []*residualComp
	compOfGroup := make([]int, len(groups))
	for gi := range groups {
		if len(residualOfGroup[gi]) == 0 {
			compOfGroup[gi] = -1
			continue
		}
		c := &residualComp{vars: groupVars[gi]}
		for _, li := range groups[gi] {
			c.locs = append(c.locs, sub.locs[li].loc)
			c.conj = append(c.conj, sub.locs[li].conj...)
		}
		c.conj = append(c.conj, chainEdges(c.vars)...)
		for _, di := range residualOfGroup[gi] {
			at := disjLoc[di]
			c.disj = append(c.disj, sub.locs[at.li].disj[at.i])
		}
		compOfGroup[gi] = len(comps)
		comps = append(comps, c)
	}
	sol.cdclComps = len(comps)
	if len(comps) > 0 && len(out.Forced) > 0 {
		nodeGroup := make([]int32, len(g.vars))
		for gi, vs := range groupVars {
			for _, tc := range vs {
				nodeGroup[g.node(tc)] = int32(gi)
			}
		}
		for _, e := range out.Forced {
			gi := nodeGroup[e[0]]
			if ci := compOfGroup[gi]; ci >= 0 {
				c := comps[ci]
				c.forced = append(c.forced, [2]trace.TC{g.vars[e[0]], g.vars[e[1]]})
			}
		}
	}
	for _, c := range comps {
		eps := make([]trace.TC, 0, 4*len(c.disj))
		for _, d := range c.disj {
			eps = append(eps, d.a1, d.b1, d.a2, d.b2)
		}
		sortTCs(eps)
		eps = dedupTCs(eps)
		for _, u := range eps {
			for _, v := range eps {
				if u.Thread == v.Thread {
					continue
				}
				if eng.Reaches(g.node(u), g.node(v)) {
					c.bridges = append(c.bridges, [2]trace.TC{u, v})
				}
			}
		}
	}

	obsOn := obs.Enabled()
	for _, c := range comps {
		sv.Reset()
		compStart := time.Now()
		chosen, cstats, err := solveResidualComp(c, sv)
		ns := time.Since(compStart).Nanoseconds()
		if obsOn {
			mSolveComponentNS.Observe(ns)
			mSolveComponentVars.Observe(int64(len(c.vars)))
		}
		if err != nil {
			sol.err = err
			return sol
		}
		sol.chosen = append(sol.chosen, chosen...)
		sol.cacheHits += cstats.CacheHits
		sol.cacheMisses += cstats.CacheMisses
		sol.solver.Add(cstats.Solver)
	}
	return sol
}

// hashLocItems content-addresses one location's complete item sequence.
// Equal hashes mean buildLocSys generates byte-identical constraints, so
// a component fingerprint over member (location, hash) pairs certifies
// that the assembled subsystems match (see groupFP).
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

// computeScheduleStream is the offline form of the streaming engine
// (-engine stream): it replays the log's per-thread buffers through a
// StreamSolver in thread-ID order, as if every thread retired in turn,
// then finishes. Differential tests and the lightfuzz stream oracle use
// it to pin the streamed schedule byte-identical to the batch engine
// without re-running the program.
func computeScheduleStream(log *trace.Log, jobs int) (*Schedule, error) {
	ss := NewStreamSolver(jobs)
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
	for _, tid := range tids {
		ss.ThreadRetired(tid, deps[tid], ranges[tid])
	}
	return ss.Finish(log)
}
