package light

import (
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

// TestRecordOrderIsAModel is the executable form of Lemma 4.1: the record
// run's own linearization (captured by the Oracle) must satisfy every
// constraint the schedule generator emits from that run's log. A violated
// constraint pinpoints a generation bug precisely.
func TestRecordOrderIsAModel(t *testing.T) {
	programs := map[string]string{
		"racy-counter": `
class C { field n; }
var c = null;
fun bump(k) { for (var i = 0; i < k; i = i + 1) { c.n = c.n + 1; } }
fun main() {
  c = new C(); c.n = 0;
  var t1 = spawn bump(50);
  var t2 = spawn bump(50);
  join t1; join t2;
  print(c.n);
}`,
		"mixed-sync-racy": `
class C { field n; }
var c = null;
var l = null;
fun work(k) {
  for (var i = 0; i < k; i = i + 1) {
    if (i % 3 == 0) {
      sync (l) { c.n = c.n + 1; }
    } else {
      c.n = c.n + 1;
    }
  }
}
fun main() {
  c = new C(); l = new C();
  c.n = 0;
  var ts = newarr(4);
  for (var i = 0; i < 4; i = i + 1) { ts[i] = spawn work(30); }
  for (var i = 0; i < 4; i = i + 1) { join ts[i]; }
  print(c.n);
}`,
		"maps": `
var m = null;
fun writer(base) {
  for (var i = 0; i < 15; i = i + 1) { m[base + i] = i; }
}
fun reader() {
  var s = 0;
  for (var i = 0; i < 15; i = i + 1) {
    var v = m[i];
    if (v != null) { s = s + v; }
  }
  print(s, len(m));
}
fun main() {
  m = newmap();
  var a = spawn writer(0);
  var b = spawn writer(50);
  var r = spawn reader();
  join a; join b; join r;
  print(len(m));
}`,
	}

	for name, src := range programs {
		for vname, opts := range allVariants() {
			t.Run(name+"/"+vname, func(t *testing.T) {
				prog := compile(t, src)
				for seed := uint64(0); seed < 5; seed++ {
					rec := NewRecorder(opts)
					oracle := vm.NewOracle(rec)
					res := vm.Run(vm.Config{Prog: prog, Hooks: oracle, Seed: seed})
					log := rec.Finish(res, seed)
					checkModel(t, log, oracle, seed)
					if t.Failed() {
						return
					}
				}
			})
		}
	}
}

// checkModel evaluates the generated system against the oracle order.
func checkModel(t *testing.T, log *trace.Log, oracle *vm.Oracle, seed uint64) {
	t.Helper()
	sys := buildSystem(log)

	// Position of each access in the oracle linearization.
	pathIdx := make(map[string]int32)
	for i, p := range log.Threads {
		pathIdx[p] = int32(i)
	}
	pos := make(map[trace.TC]int)
	for i, ev := range oracle.Events() {
		ti, ok := pathIdx[ev.ThreadPath]
		if !ok {
			t.Fatalf("seed %d: oracle thread %q missing from log", seed, ev.ThreadPath)
		}
		pos[trace.TC{Thread: ti, Counter: ev.Counter}] = i
	}
	at := func(tc trace.TC) int {
		p, ok := pos[tc]
		if !ok {
			t.Fatalf("seed %d: constraint references access %+v not in oracle trace", seed, tc)
		}
		return p
	}

	conj := sys.chain()
	for _, ls := range sys.locs {
		conj = append(conj, ls.conj...)
	}
	for _, c := range conj {
		if !(at(c[0]) < at(c[1])) {
			t.Errorf("seed %d: conjunctive constraint violated by record order: %+v < %+v (pos %d vs %d)",
				seed, c[0], c[1], at(c[0]), at(c[1]))
			return
		}
	}
	for _, ls := range sys.locs {
		for _, d := range ls.disj {
			if !(at(d.a1) < at(d.b1) || at(d.a2) < at(d.b2)) {
				t.Errorf("seed %d: disjunction violated by record order: (%+v<%+v | %+v<%+v) positions (%d,%d,%d,%d)\n%s",
					seed, d.a1, d.b1, d.a2, d.b2, at(d.a1), at(d.b1), at(d.a2), at(d.b2), describeItems(sys, d))
				return
			}
		}
	}
}

func describeItems(sys *system, d disjunction) string {
	out := ""
	items := sys.items
	v := items.x.vars
	for li, loc := range items.x.locIDs {
		rcs, wbs := items.locItemNodes(li)
		for _, rc := range rcs {
			if v[rc.hi] == d.a2 {
				out += fmt.Sprintf("loc %d rc: %+v\n", loc, rc)
			}
		}
		for _, wb := range wbs {
			if v[wb.hi] == d.a1 {
				out += fmt.Sprintf("loc %d wb: %+v\n", loc, wb)
			}
		}
	}
	return out
}
