package vm

import (
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
)

// Shadow is per-entity recorder state: one cell per location (field slot,
// array element, global, or synchronization ghost). It is the runtime
// counterpart of the shadow fields the paper's transformer weaves into
// instrumented classes — recorders reach their per-location state through a
// pointer on the entity instead of a global table. Allocation is lazy and
// race-safe; cells are swapped in with CompareAndSwap.
type Shadow struct {
	cells atomic.Pointer[[]atomic.Pointer[any]]
}

// numGhostSlots covers the ghost offsets -1..-4.
const numGhostSlots = 4

// cell returns the shadow cell for slot (0..n-1 real slots, then ghosts).
func (s *Shadow) cell(n, idx int) *atomic.Pointer[any] {
	sl := s.cells.Load()
	if sl == nil {
		fresh := make([]atomic.Pointer[any], n+numGhostSlots)
		if s.cells.CompareAndSwap(nil, &fresh) {
			sl = &fresh
		} else {
			sl = s.cells.Load()
		}
	}
	return &(*sl)[idx]
}

// ShadowCell resolves the shadow cell of one access. The VM fills
// Access.Slot with the resolved slot (field slot index, array element,
// global ID, or 0 for whole-map locations); ghost offsets map onto the
// trailing ghost cells.
func ShadowCell(a Access) *atomic.Pointer[any] {
	var s *Shadow
	var n int
	switch b := a.Loc.Base.(type) {
	case *Object:
		s, n = &b.Shadow, len(b.Fields)
	case *Array:
		s, n = &b.Shadow, len(b.Elems)
	case *MapObj:
		s, n = &b.Shadow, 1
	case *ThreadHandle:
		s, n = &b.Shadow, 0
	case *GlobalsBase:
		s, n = &b.Shadow, len(b.Slots)
	default:
		return nil
	}
	idx := a.Slot
	if a.Loc.Off < 0 {
		idx = n + int(-a.Loc.Off) - 1
	}
	return s.cell(n, idx)
}

// Object is a class instance: a fixed slice of field slots plus a monitor.
// UID is a cheap allocation identity (unique per run) that recorders use to
// key their per-location state without hashing interfaces — the moral
// equivalent of the shadow fields the Java tools weave into classes.
type Object struct {
	Class  *compiler.Class
	Fields []Value
	Mon    Monitor
	UID    uint64
	Shadow Shadow
}

// NewObject allocates an instance of cl with all fields null.
func NewObject(cl *compiler.Class) *Object {
	return &Object{Class: cl, Fields: make([]Value, len(cl.Fields))}
}

// Array is a fixed-length array of values with a monitor.
type Array struct {
	Elems  []Value
	Mon    Monitor
	UID    uint64
	Shadow Shadow
}

// MapKey is a hashable MiniJ map key (int, bool, or string).
type MapKey struct {
	IsStr bool
	I     int64
	S     string
}

// MapObj is the MiniJ stand-in for java.util.HashMap. Recording treats the
// whole map as a single shared location, mirroring how a HashMap's interior
// is opaque to field-granular tools (and to Clap's symbolic encoder).
//
// mu guards M inside the raw read/write closures only. The recorder's
// optimistic (seqlock) read runs a read closure concurrently with a
// writer's closure and discards a torn value afterwards, but a Go map
// faults on a concurrent read and write before validation can run, so the
// table itself must be locked. The lock orders no recorded event.
//
// upd makes a table update (put, remove) one step outside replay: the
// update's read and write of the whole-map location run back to back, so
// every update's read observes the previous update's write. Without it two
// racing puts could both read the same version, the first one's write
// would be read by no one, and replay would drop it as blind.
type MapObj struct {
	M      map[MapKey]Value
	Mon    Monitor
	UID    uint64
	Shadow Shadow
	mu     sync.Mutex
	upd    sync.Mutex
}

// get returns the value under k (null when absent) under the table lock.
func (m *MapObj) get(k MapKey) Value {
	m.mu.Lock()
	val := m.M[k]
	m.mu.Unlock()
	return val
}

// update runs a table update's accesses as one step (see MapObj.upd).
// Replay runs skip the lock: the enforced schedule already orders the
// accesses, and a thread holding it while parked at the schedule gate
// would block the thread whose turn it is.
func (v *VM) update(m *MapObj, f func()) {
	if v.cfg.ReplayMode {
		f()
		return
	}
	m.upd.Lock()
	defer m.upd.Unlock()
	f()
}

// NewMapObj allocates an empty map.
func NewMapObj() *MapObj { return &MapObj{M: make(map[MapKey]Value)} }

// Monitorable returns the monitor of a heap entity value, or nil when the
// value is not a heap entity (and so cannot be synchronized on).
func Monitorable(v Value) *Monitor {
	switch v.Kind {
	case KindObj:
		return &v.Ref.(*Object).Mon
	case KindArr:
		return &v.Ref.(*Array).Mon
	case KindMap:
		return &v.Ref.(*MapObj).Mon
	case KindThread:
		return &v.Ref.(*ThreadHandle).Mon
	default:
		return nil
	}
}

// Ghost field offsets. The paper (Section 4.3) models synchronization
// primitives as accesses to ghost fields of the involved object; these
// negative offsets never collide with real field IDs or array indices.
const (
	GhostMonitor = -1 // lock acquire = read+write, release = write
	GhostLife    = -2 // thread start = write by parent, first action / join = read
	GhostNotify  = -3 // notify = write, post-wait = read
	GhostMapAll  = -4 // whole-map location for map reads/writes
)

// Loc identifies one shared memory location: a heap entity plus an offset.
// For object fields the offset is the field-name ID; for arrays it is the
// element index; ghost offsets model synchronization (see above). Loc is
// comparable and is used as the key of the last-write maps in every recorder.
type Loc struct {
	Base any   // *Object, *Array, *MapObj, *ThreadHandle, or GlobalsBase
	Off  int64 // field ID, array index, global ID, or ghost offset
}

// GlobalsBase is the ghost object holding top-level globals; its "fields"
// are the program's global variables, indexed by global ID.
type GlobalsBase struct {
	Slots  []Value
	Shadow Shadow
}

// globalsUID is the fixed allocation identity of the globals base.
const globalsUID = 1

// LocID is a compact, comparable location identity: the base entity's
// allocation UID plus the offset. Recorders key their per-location state by
// it to avoid hashing the interface-typed Loc on every access.
type LocID struct {
	UID uint64
	Off int64
}

// KeyOf returns the compact identity of a location.
func KeyOf(loc Loc) LocID {
	var uid uint64
	switch b := loc.Base.(type) {
	case *Object:
		uid = b.UID
	case *Array:
		uid = b.UID
	case *MapObj:
		uid = b.UID
	case *ThreadHandle:
		uid = b.UID
	case *GlobalsBase:
		uid = globalsUID
	}
	return LocID{UID: uid, Off: loc.Off}
}

// FieldLoc returns the location of o.field.
func FieldLoc(o *Object, fieldID int) Loc { return Loc{Base: o, Off: int64(fieldID)} }

// ElemLoc returns the location of a[i].
func ElemLoc(a *Array, i int64) Loc { return Loc{Base: a, Off: i} }

// MapLoc returns the single whole-map location of m.
func MapLoc(m *MapObj) Loc { return Loc{Base: m, Off: GhostMapAll} }

// GlobalLoc returns the location of a global slot.
func GlobalLoc(g *GlobalsBase, id int) Loc { return Loc{Base: g, Off: int64(id)} }

// MonitorLoc returns the ghost monitor location of a heap entity value.
func MonitorLoc(v Value) Loc { return Loc{Base: v.Ref, Off: GhostMonitor} }

// LifeLoc returns the thread-lifecycle ghost location of a handle.
func LifeLoc(h *ThreadHandle) Loc { return Loc{Base: h, Off: GhostLife} }

// NotifyLoc returns the notification ghost location of a heap entity value.
func NotifyLoc(v Value) Loc { return Loc{Base: v.Ref, Off: GhostNotify} }
