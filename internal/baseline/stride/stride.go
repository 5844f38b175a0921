// Package stride reimplements the Stride approach (Zhou, Xiao, Zhang, ICSE
// 2012), the paper's second record-based baseline. Stride records *bounded
// linkages*: every shared location class carries a version counter bumped by
// writes inside the location's critical section; writes log their new
// version and reads log the version they observed — both as 32-bit ints in
// thread-local buffers (the paper's space accounting counts each as half a
// long). Offline, a polynomial-time search reconstructs a per-location total
// order from the version links plus thread program order; replay then
// enforces the reconstructed orders exactly like a LEAP-style replayer.
package stride

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline/leap"
	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/vm"
)

// rec is one thread-local record: the location class, the access kind, and
// the linked version.
type rec struct {
	key     int32
	version int32
	write   bool
}

// Key returns the record's location class (a leap.Key value).
func (r *rec) Key() int32 { return r.key }

// Version returns the location-class version the access was linked to.
func (r *rec) Version() int32 { return r.version }

// IsWrite reports whether the record is a write.
func (r *rec) IsWrite() bool { return r.write }

// Log is a Stride recording.
type Log struct {
	Seed     uint64
	Threads  []string
	PerTh    map[int32][]*rec // thread -> records in program order
	Syscalls map[int32][]trace.SyscallRec
	Bugs     []trace.Bug
	// SpaceLongs counts each int record as half a long (Section 5.2).
	SpaceLongs int64
}

type locVersion struct {
	mu  sync.Mutex
	ver int32
}

// verShards spreads the version-cell table lookup.
const verShards = 64

type verShard struct {
	mu sync.RWMutex
	m  map[int32]*locVersion
}

// Recorder implements vm.Hooks with version linking.
type Recorder struct {
	shards  [verShards]verShard
	mu      sync.Mutex
	threads map[int]*threadState
}

// Stride's Java implementation also logs through boxed records in growable
// lists; the per-access allocation is part of its measured cost.
type threadState struct {
	t        *vm.Thread
	recs     []*rec
	syscalls []trace.SyscallRec
}

// NewRecorder creates a Stride recorder.
func NewRecorder() *Recorder {
	r := &Recorder{threads: make(map[int]*threadState)}
	for i := range r.shards {
		r.shards[i].m = make(map[int32]*locVersion)
	}
	return r
}

func (r *Recorder) version(key int32) *locVersion {
	sh := &r.shards[uint32(key)%verShards]
	sh.mu.RLock()
	v := sh.m[key]
	sh.mu.RUnlock()
	if v != nil {
		return v
	}
	sh.mu.Lock()
	if v = sh.m[key]; v == nil {
		v = &locVersion{}
		sh.m[key] = v
	}
	sh.mu.Unlock()
	return v
}

func (r *Recorder) state(t *vm.Thread) *threadState {
	if ts, ok := t.HookData.(*threadState); ok {
		return ts
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.threads[t.ID]
	if ts == nil {
		ts = &threadState{t: t}
		r.threads[t.ID] = ts
	}
	t.HookData = ts
	return ts
}

// SharedAccess performs the access inside the location's critical section,
// bumping the version on writes and logging the link thread-locally.
func (r *Recorder) SharedAccess(a vm.Access, do func()) {
	key := leap.Key(a.Loc)
	lv := r.version(key)
	var ver int32
	lv.mu.Lock()
	do()
	if a.Kind == vm.Write {
		lv.ver++
	}
	ver = lv.ver
	lv.mu.Unlock()
	ts := r.state(a.Thread)
	ts.recs = append(ts.recs, &rec{key: key, version: ver, write: a.Kind == vm.Write})
}

// Syscall records the live value.
func (r *Recorder) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	val := compute()
	ts := r.state(t)
	ts.syscalls = append(ts.syscalls, trace.SyscallRec{Seq: seq, Value: val.I})
	return val
}

// ThreadStarted registers the thread eagerly.
func (r *Recorder) ThreadStarted(t *vm.Thread) {
	r.mu.Lock()
	ts := &threadState{t: t}
	r.threads[t.ID] = ts
	r.mu.Unlock()
	t.HookData = ts
}

// ThreadExited is a no-op (buffers are merged in Finish).
func (r *Recorder) ThreadExited(*vm.Thread) {}

// Finish assembles the log.
func (r *Recorder) Finish(res *vm.Result, seed uint64) *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	maxID := -1
	for id := range r.threads {
		if id > maxID {
			maxID = id
		}
	}
	log := &Log{
		Seed:     seed,
		Threads:  make([]string, maxID+1),
		PerTh:    make(map[int32][]*rec),
		Syscalls: make(map[int32][]trace.SyscallRec),
	}
	var ints int64
	for id, ts := range r.threads {
		log.Threads[id] = ts.t.Path
		log.PerTh[int32(id)] = ts.recs
		ints += int64(len(ts.recs))
		if len(ts.syscalls) > 0 {
			log.Syscalls[int32(id)] = ts.syscalls
			log.SpaceLongs += int64(len(ts.syscalls)) * trace.LongsPerSyscall
		}
	}
	log.SpaceLongs += (ints + 1) / 2 // two ints per long
	log.Bugs = trace.BugsOf(res)
	return log
}

// Reconstruct performs Stride's offline polynomial-time search: it builds
// the constraint graph whose edges are (a) per-thread program order and (b)
// per-location version links — write(v) before every read that observed v,
// every read of v before write(v+1), writes in version order — and then
// topologically sorts it into a feasible global order. The projection of
// that order onto each location class yields LEAP-compatible vectors, which
// the LEAP replayer enforces.
func Reconstruct(log *Log) (*leap.Log, error) {
	// Node indexing: one node per thread-local record.
	type nodeRef struct {
		thread int32
		seq    int
	}
	var nodes []nodeRef
	nodeAt := make(map[int32][]int32) // thread -> seq -> node index
	threads := make([]int32, 0, len(log.PerTh))
	for th := range log.PerTh {
		threads = append(threads, th)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
	for _, th := range threads {
		recs := log.PerTh[th]
		idxs := make([]int32, len(recs))
		for i := range recs {
			idxs[i] = int32(len(nodes))
			nodes = append(nodes, nodeRef{thread: th, seq: i})
		}
		nodeAt[th] = idxs
	}

	succs := make([][]int32, len(nodes))
	indeg := make([]int32, len(nodes))
	addEdge := func(a, b int32) {
		succs[a] = append(succs[a], b)
		indeg[b]++
	}
	// (a) Program order.
	for _, th := range threads {
		idxs := nodeAt[th]
		for i := 0; i+1 < len(idxs); i++ {
			addEdge(idxs[i], idxs[i+1])
		}
	}
	// (b) Version links per key.
	type verGroup struct {
		write int32 // node of the write creating this version, -1 for v==0
		reads []int32
	}
	perKey := make(map[int32]map[int32]*verGroup)
	for _, th := range threads {
		for i, rc := range log.PerTh[th] {
			groups := perKey[rc.key]
			if groups == nil {
				groups = make(map[int32]*verGroup)
				perKey[rc.key] = groups
			}
			g := groups[rc.version]
			if g == nil {
				g = &verGroup{write: -1}
				groups[rc.version] = g
			}
			n := nodeAt[th][i]
			if rc.write {
				if g.write != -1 {
					return nil, fmt.Errorf("stride: location %d version %d has two writes", rc.key, rc.version)
				}
				g.write = n
			} else {
				g.reads = append(g.reads, n)
			}
		}
	}
	for _, groups := range perKey {
		vers := make([]int32, 0, len(groups))
		for v := range groups {
			vers = append(vers, v)
		}
		sort.Slice(vers, func(i, j int) bool { return vers[i] < vers[j] })
		for i, v := range vers {
			g := groups[v]
			if g.write != -1 {
				for _, r := range g.reads {
					addEdge(g.write, r)
				}
			}
			if i+1 < len(vers) {
				next := groups[vers[i+1]]
				if next.write != -1 {
					if g.write != -1 {
						addEdge(g.write, next.write)
					}
					for _, r := range g.reads {
						addEdge(r, next.write)
					}
				}
			}
		}
	}

	// Kahn topological sort.
	queue := make([]int32, 0, len(nodes))
	for i := range indeg {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	order := make([]int32, 0, len(nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range succs[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("stride: version links are cyclic (%d of %d ordered)", len(order), len(nodes))
	}

	out := &leap.Log{
		Seed:       log.Seed,
		Threads:    log.Threads,
		Vectors:    make(map[int32][]int32),
		Syscalls:   log.Syscalls,
		Bugs:       log.Bugs,
		SpaceLongs: log.SpaceLongs,
	}
	for _, n := range order {
		ref := nodes[n]
		rc := log.PerTh[ref.thread][ref.seq]
		out.Vectors[rc.key] = append(out.Vectors[rc.key], ref.thread)
	}
	return out, nil
}

// Record runs the program under the Stride recorder.
func Record(prog *compiler.Program, seed uint64, instrument []bool, sleepUnit int64) (*Log, *vm.Result, time.Duration) {
	rec := NewRecorder()
	start := time.Now()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rec, Seed: seed,
		Instrument: instrument, SleepUnit: sleepUnit,
	})
	return rec.Finish(res, seed), res, time.Since(start)
}

// Replay reconstructs the order offline and enforces it.
func Replay(prog *compiler.Program, log *Log, instrument []bool) (*vm.Result, bool, string, error) {
	ll, err := Reconstruct(log)
	if err != nil {
		return nil, true, err.Error(), err
	}
	res, failed, reason := leap.Replay(prog, ll, instrument)
	return res, failed, reason, nil
}
