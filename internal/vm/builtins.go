package vm

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compiler"
)

func (t *Thread) heldContains(m *Monitor) bool {
	for _, h := range t.held {
		if h == m {
			return true
		}
	}
	return false
}

func (v *VM) callBuiltin(t *Thread, fn *compiler.Func, pc int, b compiler.Builtin, in *compiler.Instr, regs []Value) (Value, *RuntimeErr) {
	arg := func(i int) Value { return regs[in.Args[i]] }
	switch b {
	case compiler.BPrint:
		parts := make([]string, len(in.Args))
		for i := range in.Args {
			parts[i] = arg(i).String()
		}
		t.printf("%s", strings.Join(parts, " "))
		return Null, nil

	case compiler.BTime:
		t.SyscallSeq++
		return v.hooks.Syscall(t, t.SyscallSeq, SysTime, func() Value { return IntVal(v.now()) }), nil

	case compiler.BRandom:
		n := arg(0)
		if n.Kind != KindInt || n.I <= 0 {
			return Null, v.runtimeErr(t, fn, pc, ErrType, n.String(), "random bound must be a positive int")
		}
		t.SyscallSeq++
		bound := n.I
		return v.hooks.Syscall(t, t.SyscallSeq, SysRandom, func() Value {
			return IntVal(int64(t.rand() % uint64(bound)))
		}), nil

	case compiler.BLen:
		x := arg(0)
		switch x.Kind {
		case KindStr:
			return IntVal(int64(len(x.S))), nil
		case KindArr:
			return IntVal(int64(len(x.Ref.(*Array).Elems))), nil
		case KindMap:
			m := x.Ref.(*MapObj)
			return v.sharedRead(t, MapLoc(m), in.Site, 0, func() Value {
				m.mu.Lock()
				n := len(m.M)
				m.mu.Unlock()
				return IntVal(int64(n))
			}), nil
		case KindNull:
			return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "len of null")
		default:
			return Null, v.runtimeErr(t, fn, pc, ErrType, x.String(), "len of %s", x.Kind)
		}

	case compiler.BStr:
		return StrVal(arg(0).String()), nil

	case compiler.BHash:
		x := arg(0)
		switch x.Kind {
		case KindInt:
			return IntVal(x.I*0x9e3779b9 ^ (x.I >> 16)), nil
		case KindBool:
			return IntVal(x.I), nil
		case KindStr:
			var h int64 = 1469598103934665603
			for i := 0; i < len(x.S); i++ {
				h ^= int64(x.S[i])
				h *= 1099511628211
			}
			if h < 0 {
				h = -h
			}
			return IntVal(h), nil
		case KindNull:
			return IntVal(0), nil
		default:
			return Null, v.runtimeErr(t, fn, pc, ErrType, x.String(), "hash of %s", x.Kind)
		}

	case compiler.BContains:
		mv, kv := arg(0), arg(1)
		if mv.IsNull() {
			return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "contains on null")
		}
		if mv.Kind != KindMap {
			return Null, v.runtimeErr(t, fn, pc, ErrType, mv.String(), "contains on %s", mv.Kind)
		}
		k, ok := mapKey(kv)
		if !ok {
			return Null, v.runtimeErr(t, fn, pc, ErrType, kv.String(), "map key is %s, not hashable", kv.Kind)
		}
		m := mv.Ref.(*MapObj)
		return v.sharedRead(t, MapLoc(m), in.Site, 0, func() Value {
			m.mu.Lock()
			_, present := m.M[k]
			m.mu.Unlock()
			return BoolVal(present)
		}), nil

	case compiler.BRemove:
		mv, kv := arg(0), arg(1)
		if mv.IsNull() {
			return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "remove on null")
		}
		if mv.Kind != KindMap {
			return Null, v.runtimeErr(t, fn, pc, ErrType, mv.String(), "remove on %s", mv.Kind)
		}
		k, ok := mapKey(kv)
		if !ok {
			return Null, v.runtimeErr(t, fn, pc, ErrType, kv.String(), "map key is %s, not hashable", kv.Kind)
		}
		m := mv.Ref.(*MapObj)
		// remove returns the previous value: a read followed by a write of
		// the whole-map location, two shared accesses like in Java where
		// remove both queries and mutates.
		var old Value
		v.update(m, func() {
			old = v.sharedRead(t, MapLoc(m), in.Site, 0, func() Value { return m.get(k) })
			v.sharedWrite(t, MapLoc(m), in.Site, 0, func() {
				m.mu.Lock()
				delete(m.M, k)
				m.mu.Unlock()
			})
		})
		return old, nil

	case compiler.BKeys:
		mv := arg(0)
		if mv.IsNull() {
			return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "keys on null")
		}
		if mv.Kind != KindMap {
			return Null, v.runtimeErr(t, fn, pc, ErrType, mv.String(), "keys on %s", mv.Kind)
		}
		m := mv.Ref.(*MapObj)
		var out *Array
		v.sharedRead(t, MapLoc(m), in.Site, 0, func() Value {
			m.mu.Lock()
			ks := make([]MapKey, 0, len(m.M))
			for k := range m.M {
				ks = append(ks, k)
			}
			m.mu.Unlock()
			// Deterministic order: ints before strings, each sorted.
			sort.Slice(ks, func(i, j int) bool {
				a, b := ks[i], ks[j]
				if a.IsStr != b.IsStr {
					return !a.IsStr
				}
				if a.IsStr {
					return a.S < b.S
				}
				return a.I < b.I
			})
			out = &Array{Elems: make([]Value, len(ks))}
			for i, k := range ks {
				if k.IsStr {
					out.Elems[i] = StrVal(k.S)
				} else {
					out.Elems[i] = IntVal(k.I)
				}
			}
			return Null
		})
		return ArrVal(out), nil

	case compiler.BSleep:
		d := arg(0)
		if d.Kind != KindInt || d.I < 0 {
			return Null, v.runtimeErr(t, fn, pc, ErrType, d.String(), "sleep duration must be a non-negative int")
		}
		if !v.cfg.IgnoreSleep && !v.cfg.ReplayMode {
			unit := v.cfg.SleepUnit
			if unit == 0 {
				unit = 1000 // 1µs per sleep tick by default
			}
			time.Sleep(time.Duration(d.I * unit))
		}
		return Null, nil

	case compiler.BYield:
		// Yield-bias: under perturbation an explicit yield may be amplified
		// into a spin or short sleep, pushing polling loops off their
		// expected timing.
		v.maybePerturb(t)
		runtime.Gosched()
		return Null, nil

	case compiler.BTid:
		return StrVal(t.Path), nil

	case compiler.BWait:
		return v.builtinWait(t, fn, pc, arg(0))

	case compiler.BNotify, compiler.BNotifyAll:
		return v.builtinNotify(t, fn, pc, arg(0), b == compiler.BNotifyAll)

	case compiler.BAbs:
		x := arg(0)
		if x.Kind != KindInt {
			return Null, v.runtimeErr(t, fn, pc, ErrType, x.String(), "abs of %s", x.Kind)
		}
		if x.I < 0 {
			return IntVal(-x.I), nil
		}
		return x, nil

	case compiler.BMin, compiler.BMax:
		a, c := arg(0), arg(1)
		if a.Kind != KindInt || c.Kind != KindInt {
			return Null, v.runtimeErr(t, fn, pc, ErrType, a.String(), "min/max of %s and %s", a.Kind, c.Kind)
		}
		if (b == compiler.BMin) == (a.I < c.I) {
			return a, nil
		}
		return c, nil
	}
	return Null, v.runtimeErr(t, fn, pc, ErrType, "", "unknown builtin %d", b)
}

// builtinWait implements wait(o). Following Section 4.3 (and [16, 17]), the
// wait splits into wait_before (a release ghost write) and wait_after (a
// read of the notify ghost — capturing the notify→wait dependence — plus a
// reacquire read/write of the monitor ghost).
func (v *VM) builtinWait(t *Thread, fn *compiler.Func, pc int, lv Value) (Value, *RuntimeErr) {
	if lv.IsNull() {
		return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "wait on null")
	}
	mon := Monitorable(lv)
	if mon == nil {
		return Null, v.runtimeErr(t, fn, pc, ErrType, lv.String(), "wait on %s", lv.Kind)
	}
	monLoc := MonitorLoc(lv)
	ntfLoc := NotifyLoc(lv)
	if v.cfg.ReplayMode {
		if !t.heldContains(mon) {
			return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "wait without holding monitor")
		}
		v.ghostAccess(t, Write, monLoc, true) // wait_before: release
		v.ghostAccess(t, Read, ntfLoc, true)  // blocks at its gate until the notify's turn
		v.ghostAccess(t, Read, monLoc, true)  // wait_after: reacquire
		v.ghostAccess(t, Write, monLoc, true)
		return Null, nil
	}
	// Scheduling point: delay entering the wait so racing notifiers can win.
	v.maybePerturb(t)
	ok := mon.Wait(t,
		func() { v.ghostAccess(t, Write, monLoc, true) },
		func() {
			v.ghostAccess(t, Read, ntfLoc, true)
			v.ghostAccess(t, Read, monLoc, true)
			v.ghostAccess(t, Write, monLoc, true)
		})
	if !ok {
		return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "wait without holding monitor")
	}
	return Null, nil
}

func (v *VM) builtinNotify(t *Thread, fn *compiler.Func, pc int, lv Value, all bool) (Value, *RuntimeErr) {
	if lv.IsNull() {
		return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "notify on null")
	}
	mon := Monitorable(lv)
	if mon == nil {
		return Null, v.runtimeErr(t, fn, pc, ErrType, lv.String(), "notify on %s", lv.Kind)
	}
	ntfLoc := NotifyLoc(lv)
	if v.cfg.ReplayMode {
		if !t.heldContains(mon) {
			return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "notify without holding monitor")
		}
		v.ghostAccess(t, Write, ntfLoc, true)
		return Null, nil
	}
	// Scheduling point: delay the notify so racing waiters can reach (or
	// miss) their wait first.
	v.maybePerturb(t)
	body := func() { v.ghostAccess(t, Write, ntfLoc, true) }
	var ok bool
	if all {
		ok = mon.NotifyAll(t, body)
	} else {
		ok = mon.Notify(t, body)
	}
	if !ok {
		return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "notify without holding monitor")
	}
	return Null, nil
}
