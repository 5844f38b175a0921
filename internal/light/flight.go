package light

import (
	"sync"

	"repro/internal/obs/flight"
	"repro/internal/vm"
)

// flightRings holds the flight rings of one record or replay run: each
// thread's ring is created at thread start and the run's outcome hands
// their snapshots back. capacity 0 means the run records no flight events;
// every thread's ring is then nil, which is the hot paths' one off-path
// branch.
type flightRings struct {
	capacity int

	mu    sync.Mutex
	rings []*flight.Ring
}

// newRing creates and keeps a ring for one thread, or returns nil when the
// run records no flight events.
func (fr *flightRings) newRing(track string, thread int32, label string) *flight.Ring {
	if fr.capacity <= 0 {
		return nil
	}
	r := flight.NewRing(track, thread, label, fr.capacity)
	fr.mu.Lock()
	fr.rings = append(fr.rings, r)
	fr.mu.Unlock()
	return r
}

// snapshot drains every ring of the run, in thread-start order.
func (fr *flightRings) snapshot() []flight.RingSnap {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var out []flight.RingSnap
	for _, r := range fr.rings {
		out = append(out, r.Snapshot())
	}
	return out
}

// flightThread is one thread's flight ring (nil when the run records no
// flight events) plus the monitor acquire awaiting its second half: the VM
// emits a monitor acquisition as a ghost read+write pair, which the ring
// records as one EvLockAcquire event.
type flightThread struct {
	fl     *flight.Ring
	acqLoc vm.Loc
	acqC   uint64
	acqSet bool
}

// flightAccess records the flight event for one instrumented access: monitor
// ghost accesses become lock acquire/release events, everything else a
// read/write event. loc is the event's location payload and pos its A
// payload (the replayer's schedule position; 0 in the recorder).
func (ft *flightThread) flightAccess(a vm.Access, loc, pos int64) {
	e := flight.Event{Counter: a.Counter, Loc: loc, A: pos}
	switch {
	case a.Loc.Off != vm.GhostMonitor:
		e.Kind = flight.EvRead
		if a.Kind == vm.Write {
			e.Kind = flight.EvWrite
		}
	case a.Kind == vm.Read:
		e.Kind = flight.EvLockAcquire
		ft.acqLoc, ft.acqC, ft.acqSet = a.Loc, a.Counter, true
	case ft.acqSet && ft.acqLoc == a.Loc && a.Counter == ft.acqC+1:
		ft.acqSet = false // second half of the acquire pair
		return
	default:
		e.Kind = flight.EvLockRelease
	}
	ft.fl.Record(e)
}
