package vm

import (
	"repro/internal/compiler"
	"repro/internal/lang"
)

const maxCallDepth = 4096

// exec interprets fn on thread t with the given arguments, returning the
// function's value or the error that killed the thread.
func (v *VM) exec(t *Thread, fn *compiler.Func, args []Value) (Value, *RuntimeErr) {
	if t.callDepth >= maxCallDepth {
		return Null, &RuntimeErr{
			Kind: ErrStackOverflow, Msg: "call depth exceeded",
			FuncID: fn.ID, ThreadPath: t.Path, Counter: t.Counter,
		}
	}
	t.callDepth++
	defer func() { t.callDepth-- }()
	if v.frames != nil {
		v.frames.EnterFunc(t, fn.ID)
		defer v.frames.ExitFunc(t, fn.ID)
	}

	regs := make([]Value, fn.NumRegs)
	copy(regs, args)
	code := fn.Code

	for pc := 0; pc < len(code); pc++ {
		t.steps++
		if t.steps > v.maxSteps {
			return Null, v.runtimeErr(t, fn, pc, ErrStepLimit, "", "thread exceeded %d steps", v.maxSteps)
		}
		in := &code[pc]
		switch in.Op {
		case compiler.Nop:

		case compiler.Const:
			regs[in.Dst] = valueOfConst(in.K)

		case compiler.Move:
			regs[in.Dst] = regs[in.A]

		case compiler.Bin:
			val, err := v.binop(t, fn, pc, in.BinOp, regs[in.A], regs[in.B])
			if err != nil {
				return Null, err
			}
			regs[in.Dst] = val

		case compiler.Un:
			x := regs[in.A]
			switch in.UnOp {
			case lang.OpNeg:
				if x.Kind != KindInt {
					return Null, v.runtimeErr(t, fn, pc, ErrType, x.String(), "unary - on %s", x.Kind)
				}
				regs[in.Dst] = IntVal(-x.I)
			case lang.OpNot:
				if x.Kind != KindBool {
					return Null, v.runtimeErr(t, fn, pc, ErrType, x.String(), "unary ! on %s", x.Kind)
				}
				regs[in.Dst] = BoolVal(x.I == 0)
			}

		case compiler.LoadField:
			obj := regs[in.A]
			if obj.IsNull() {
				return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "read of field %s on null", v.prog.FieldNames[in.Sym])
			}
			o, ok := obj.Ref.(*Object)
			if obj.Kind != KindObj || !ok || o == nil {
				return Null, v.runtimeErr(t, fn, pc, ErrType, obj.String(), "read of field %s on %s", v.prog.FieldNames[in.Sym], obj.Kind)
			}
			slot, ok := o.Class.SlotOf[in.Sym]
			if !ok {
				return Null, v.runtimeErr(t, fn, pc, ErrType, obj.String(), "class %s has no field %s", o.Class.Name, v.prog.FieldNames[in.Sym])
			}
			regs[in.Dst] = v.sharedRead(t, FieldLoc(o, in.Sym), in.Site, slot, func() Value { return o.Fields[slot] })

		case compiler.StoreField:
			obj := regs[in.A]
			if obj.IsNull() {
				return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "write of field %s on null", v.prog.FieldNames[in.Sym])
			}
			o, ok := obj.Ref.(*Object)
			if obj.Kind != KindObj || !ok || o == nil {
				return Null, v.runtimeErr(t, fn, pc, ErrType, obj.String(), "write of field %s on %s", v.prog.FieldNames[in.Sym], obj.Kind)
			}
			slot, ok := o.Class.SlotOf[in.Sym]
			if !ok {
				return Null, v.runtimeErr(t, fn, pc, ErrType, obj.String(), "class %s has no field %s", o.Class.Name, v.prog.FieldNames[in.Sym])
			}
			val := regs[in.B]
			v.sharedWrite(t, FieldLoc(o, in.Sym), in.Site, slot, func() { o.Fields[slot] = val })

		case compiler.LoadIndex:
			val, err := v.loadIndex(t, fn, pc, in, regs)
			if err != nil {
				return Null, err
			}
			regs[in.Dst] = val

		case compiler.StoreIndex:
			if err := v.storeIndex(t, fn, pc, in, regs); err != nil {
				return Null, err
			}

		case compiler.LoadGlobal:
			gid := in.Sym
			regs[in.Dst] = v.sharedRead(t, GlobalLoc(v.globals, gid), in.Site, gid, func() Value { return v.globals.Slots[gid] })

		case compiler.StoreGlobal:
			gid := in.Sym
			val := regs[in.A]
			v.sharedWrite(t, GlobalLoc(v.globals, gid), in.Site, gid, func() { v.globals.Slots[gid] = val })

		case compiler.NewObject:
			o := NewObject(v.prog.Classes[in.Sym])
			o.UID = t.nextUID()
			regs[in.Dst] = ObjVal(o)

		case compiler.NewArray:
			n := regs[in.A]
			if n.Kind != KindInt || n.I < 0 {
				return Null, v.runtimeErr(t, fn, pc, ErrType, n.String(), "newarr length must be a non-negative int")
			}
			regs[in.Dst] = ArrVal(&Array{Elems: make([]Value, n.I), UID: t.nextUID()})

		case compiler.NewMap:
			m := NewMapObj()
			m.UID = t.nextUID()
			regs[in.Dst] = MapVal(m)

		case compiler.Call:
			callee := v.prog.Funs[in.Sym]
			callArgs := make([]Value, len(in.Args))
			for i, r := range in.Args {
				callArgs[i] = regs[r]
			}
			ret, err := v.exec(t, callee, callArgs)
			if err != nil {
				return Null, err
			}
			regs[in.Dst] = ret

		case compiler.CallBtn:
			val, err := v.callBuiltin(t, fn, pc, compiler.Builtin(in.Sym), in, regs)
			if err != nil {
				return Null, err
			}
			regs[in.Dst] = val

		case compiler.Spawn:
			callee := v.prog.Funs[in.Sym]
			callArgs := make([]Value, len(in.Args))
			for i, r := range in.Args {
				callArgs[i] = regs[r]
			}
			// The spawn is a ghost write that the child's first transition
			// reads, ordering thread start (Section 4.3). Allocate the
			// handle first so the location exists, then write, then start.
			h := v.prepareChild(t)
			v.ghostAccess(t, Write, LifeLoc(h), false)
			v.startChild(t, h, callee, callArgs)
			regs[in.Dst] = ThreadVal(h)

		case compiler.Join:
			tv := regs[in.A]
			if tv.Kind != KindThread {
				return Null, v.runtimeErr(t, fn, pc, ErrType, tv.String(), "join on %s", tv.Kind)
			}
			h := tv.Ref.(*ThreadHandle)
			if !v.cfg.ReplayMode {
				<-h.Done
			}
			// Ghost read pairing with the child's exit write.
			v.ghostAccess(t, Read, LifeLoc(h), false)
			if v.cfg.ReplayMode {
				<-h.Done
			}

		case compiler.Jmp:
			pc = in.Target - 1

		case compiler.JmpIf:
			c := regs[in.A]
			if c.Kind != KindBool {
				return Null, v.runtimeErr(t, fn, pc, ErrType, c.String(), "condition is %s, not bool", c.Kind)
			}
			taken := c.I != 0
			if v.branch != nil {
				v.branch.OnBranch(t, in.Sym2, taken)
			}
			if taken {
				pc = in.Target - 1
			}

		case compiler.Ret:
			if in.A < 0 {
				return Null, nil
			}
			return regs[in.A], nil

		case compiler.Assert:
			c := regs[in.A]
			if c.Kind != KindBool {
				return Null, v.runtimeErr(t, fn, pc, ErrType, c.String(), "assert condition is %s, not bool", c.Kind)
			}
			if c.I == 0 {
				msg := in.K.Str
				if msg == "" {
					msg = "assertion failed"
				}
				return Null, v.runtimeErr(t, fn, pc, ErrAssert, "false", "%s", msg)
			}

		case compiler.MonEnter:
			lv := regs[in.A]
			if lv.IsNull() {
				return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "sync on null")
			}
			mon := Monitorable(lv)
			if mon == nil {
				return Null, v.runtimeErr(t, fn, pc, ErrType, lv.String(), "sync on %s", lv.Kind)
			}
			if !v.cfg.ReplayMode {
				// Scheduling point: perturbing just before acquisition
				// reorders lock-contention winners.
				v.maybePerturb(t)
				mon.Enter(t)
			}
			t.pushHeld(mon)
			// Acquisition = ghost read then write, inside the region.
			loc := MonitorLoc(lv)
			v.ghostAccess(t, Read, loc, true)
			v.ghostAccess(t, Write, loc, true)

		case compiler.MonExit:
			lv := regs[in.A]
			mon := Monitorable(lv)
			if mon == nil {
				return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "monitor exit on %s", lv.Kind)
			}
			// Scheduling point: perturbing before release stretches the
			// critical section against waiting acquirers.
			v.maybePerturb(t)
			// Release = ghost write, still inside the region.
			v.ghostAccess(t, Write, MonitorLoc(lv), true)
			if v.cfg.ReplayMode {
				if !t.heldContains(mon) {
					return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "monitor not held")
				}
				t.popHeld(mon)
			} else {
				if !mon.Exit(t) {
					return Null, v.runtimeErr(t, fn, pc, ErrMonitorState, lv.String(), "monitor not held")
				}
				t.popHeld(mon)
			}
		}
	}
	return Null, nil
}

func (v *VM) binop(t *Thread, fn *compiler.Func, pc int, op lang.BinOp, a, b Value) (Value, *RuntimeErr) {
	switch op {
	case lang.OpAdd:
		if a.Kind == KindInt && b.Kind == KindInt {
			return IntVal(a.I + b.I), nil
		}
		if a.Kind == KindStr || b.Kind == KindStr {
			return StrVal(a.String() + b.String()), nil
		}
		return Null, v.runtimeErr(t, fn, pc, ErrType, a.String(), "+ on %s and %s", a.Kind, b.Kind)
	case lang.OpSub, lang.OpMul, lang.OpDiv, lang.OpMod:
		if a.Kind != KindInt || b.Kind != KindInt {
			return Null, v.runtimeErr(t, fn, pc, ErrType, a.String()+","+b.String(), "%s on %s and %s", op, a.Kind, b.Kind)
		}
		switch op {
		case lang.OpSub:
			return IntVal(a.I - b.I), nil
		case lang.OpMul:
			return IntVal(a.I * b.I), nil
		case lang.OpDiv:
			if b.I == 0 {
				return Null, v.runtimeErr(t, fn, pc, ErrDivZero, "0", "division by zero")
			}
			return IntVal(a.I / b.I), nil
		default:
			if b.I == 0 {
				return Null, v.runtimeErr(t, fn, pc, ErrDivZero, "0", "modulo by zero")
			}
			return IntVal(a.I % b.I), nil
		}
	case lang.OpEq:
		return BoolVal(a.Equals(b)), nil
	case lang.OpNeq:
		return BoolVal(!a.Equals(b)), nil
	case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe:
		if a.Kind == KindInt && b.Kind == KindInt {
			switch op {
			case lang.OpLt:
				return BoolVal(a.I < b.I), nil
			case lang.OpLe:
				return BoolVal(a.I <= b.I), nil
			case lang.OpGt:
				return BoolVal(a.I > b.I), nil
			default:
				return BoolVal(a.I >= b.I), nil
			}
		}
		if a.Kind == KindStr && b.Kind == KindStr {
			switch op {
			case lang.OpLt:
				return BoolVal(a.S < b.S), nil
			case lang.OpLe:
				return BoolVal(a.S <= b.S), nil
			case lang.OpGt:
				return BoolVal(a.S > b.S), nil
			default:
				return BoolVal(a.S >= b.S), nil
			}
		}
		return Null, v.runtimeErr(t, fn, pc, ErrType, a.String(), "%s on %s and %s", op, a.Kind, b.Kind)
	case lang.OpAnd, lang.OpOr:
		// Normally compiled to short-circuit control flow; kept for safety.
		if a.Kind != KindBool || b.Kind != KindBool {
			return Null, v.runtimeErr(t, fn, pc, ErrType, a.String(), "%s on %s and %s", op, a.Kind, b.Kind)
		}
		if op == lang.OpAnd {
			return BoolVal(a.I != 0 && b.I != 0), nil
		}
		return BoolVal(a.I != 0 || b.I != 0), nil
	}
	return Null, v.runtimeErr(t, fn, pc, ErrType, "", "unknown operator %s", op)
}

func (v *VM) loadIndex(t *Thread, fn *compiler.Func, pc int, in *compiler.Instr, regs []Value) (Value, *RuntimeErr) {
	seq := regs[in.A]
	idx := regs[in.B]
	switch seq.Kind {
	case KindNull:
		return Null, v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "index read on null")
	case KindArr:
		a := seq.Ref.(*Array)
		if idx.Kind != KindInt {
			return Null, v.runtimeErr(t, fn, pc, ErrType, idx.String(), "array index is %s, not int", idx.Kind)
		}
		if idx.I < 0 || idx.I >= int64(len(a.Elems)) {
			return Null, v.runtimeErr(t, fn, pc, ErrIndex, idx.String(), "index %d out of bounds [0,%d)", idx.I, len(a.Elems))
		}
		i := idx.I
		return v.sharedRead(t, ElemLoc(a, i), in.Site, int(i), func() Value { return a.Elems[i] }), nil
	case KindMap:
		m := seq.Ref.(*MapObj)
		k, ok := mapKey(idx)
		if !ok {
			return Null, v.runtimeErr(t, fn, pc, ErrType, idx.String(), "map key is %s, not hashable", idx.Kind)
		}
		// Missing keys read as null, as java.util.Map.get does.
		return v.sharedRead(t, MapLoc(m), in.Site, 0, func() Value { return m.get(k) }), nil
	default:
		return Null, v.runtimeErr(t, fn, pc, ErrType, seq.String(), "index read on %s", seq.Kind)
	}
}

func (v *VM) storeIndex(t *Thread, fn *compiler.Func, pc int, in *compiler.Instr, regs []Value) *RuntimeErr {
	seq := regs[in.A]
	idx := regs[in.B]
	val := regs[in.C]
	switch seq.Kind {
	case KindNull:
		return v.runtimeErr(t, fn, pc, ErrNullPointer, "null", "index write on null")
	case KindArr:
		a := seq.Ref.(*Array)
		if idx.Kind != KindInt {
			return v.runtimeErr(t, fn, pc, ErrType, idx.String(), "array index is %s, not int", idx.Kind)
		}
		if idx.I < 0 || idx.I >= int64(len(a.Elems)) {
			return v.runtimeErr(t, fn, pc, ErrIndex, idx.String(), "index %d out of bounds [0,%d)", idx.I, len(a.Elems))
		}
		i := idx.I
		v.sharedWrite(t, ElemLoc(a, i), in.Site, int(i), func() { a.Elems[i] = val })
		return nil
	case KindMap:
		m := seq.Ref.(*MapObj)
		k, ok := mapKey(idx)
		if !ok {
			return v.runtimeErr(t, fn, pc, ErrType, idx.String(), "map key is %s, not hashable", idx.Kind)
		}
		// A map put is a read-modify-write of the whole-map location: the
		// resulting table depends on the prior table, so the recorder must
		// see a flow dependence into every put (otherwise non-final puts
		// would be classified blind and their entries lost in replay).
		v.update(m, func() {
			v.sharedRead(t, MapLoc(m), in.Site, 0, func() Value { return Null })
			v.sharedWrite(t, MapLoc(m), in.Site, 0, func() {
				m.mu.Lock()
				m.M[k] = val
				m.mu.Unlock()
			})
		})
		return nil
	default:
		return v.runtimeErr(t, fn, pc, ErrType, seq.String(), "index write on %s", seq.Kind)
	}
}

// sharedRead performs a heap read, routing it through hooks when the site is
// instrumented. Uninstrumented sites neither count nor record. slot is the
// resolved storage slot for shadow-cell addressing.
func (v *VM) sharedRead(t *Thread, loc Loc, site, slot int, raw func() Value) Value {
	if !v.instrumented(site) {
		return raw()
	}
	v.maybePerturb(t)
	c := t.NextCounter()
	var val Value
	v.hooks.SharedAccess(Access{Thread: t, Kind: Read, Loc: loc, Site: site, Counter: c, Slot: slot}, func() { val = raw() })
	return val
}

// sharedWrite performs a heap write through hooks when instrumented. The
// hook may suppress the write (blind-write avoidance during replay).
func (v *VM) sharedWrite(t *Thread, loc Loc, site, slot int, raw func()) {
	if !v.instrumented(site) {
		raw()
		return
	}
	v.maybePerturb(t)
	c := t.NextCounter()
	v.hooks.SharedAccess(Access{Thread: t, Kind: Write, Loc: loc, Site: site, Counter: c, Slot: slot}, raw)
}
