package main

import "fmt"

// rng is splitmix64: a fixed, library-independent stream, so a seed maps to
// the same programs on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// pick returns one of the given values.
func (r *rng) pick(vs ...int) int { return vs[r.next()%uint64(len(vs))] }

// The generators below emit MiniJ programs with four threads each. Two
// rules hold for all of them (bench/README.md, "Adding a workload"):
//
//   - main reads every shared location the program wrote back into a
//     printed checksum after the joins. Replay suppresses blind writes
//     (paper §4.2), so a final write nobody reads would make the heap
//     fingerprint check report a false failure.
//   - maps appear only as monitor objects (newmap() as a lock), never as
//     data: a racy map access crashes the VM process.
//
// O2 elides a field or global only when every access to it, main's
// included, holds one lock read straight from a global; so locks live in
// globals and main reads lock-guarded state back inside the lock.
//
// Parameters that set how much work a run does come from narrow bands, so
// the spread of a metric across seeds stays inside its regression bound;
// the seed mostly moves constants, offsets and initial data.

// genStripes is kernel-stripes: four threads run a numeric kernel over
// disjoint slices of one shared array for four passes. After each pass a
// thread reads one cell of its neighbour's slice and adds its partial sum
// to a lock-guarded total.
func genStripes(r *rng) string {
	n := 4 * r.between(508, 516)
	depth := 6
	mul := r.pick(29, 31, 37, 41, 43)
	a, b := r.between(3, 250), r.between(0, 256)
	offMul, offAdd := r.between(7, 97), r.between(0, 255)
	return fmt.Sprintf(`
var data = null;
var lock = null;
var total = 0;

fun sweep(lo, hi, nb) {
  var local = 0;
  for (var pass = 0; pass < 4; pass = pass + 1) {
    for (var i = lo; i < hi; i = i + 1) {
      var v = data[i];
      var h = v + pass;
      for (var r = 0; r < %d; r = r + 1) { h = (h * %d + r) %% 65537; }
      v = (v + h) %% 65537;
      data[i] = v;
      local = (local + v) %% 1000003;
    }
    local = (local + data[nb + pass]) %% 1000003;
    sync (lock) { total = (total + local) %% 1000003; }
  }
}

fun main() {
  var n = %d;
  data = newarr(n);
  lock = newmap();
  for (var i = 0; i < n; i = i + 1) { data[i] = (i * %d + %d) %% 257; }
  var slice = n / 4;
  var ts = newarr(4);
  for (var t = 0; t < 4; t = t + 1) {
    var nb = ((t + 1) %% 4) * slice + (t * %d + %d) %% (slice - 4);
    ts[t] = spawn sweep(t * slice, (t + 1) * slice, nb);
  }
  for (var t = 0; t < 4; t = t + 1) { join ts[t]; }
  var sum = 0;
  sync (lock) { sum = total; }
  for (var i = 0; i < n; i = i + 1) { sum = (sum * 31 + data[i]) %% 1000003; }
  print(sum);
}
`, depth, mul, n, a, b, offMul, offAdd)
}

// genRacy is racy-dense: four threads do unsynchronized read-then-write
// on a hot set of array cells plus two hot fields, each drawing indices
// from its own LCG. The seed picks which 64 of 96 cells are hot (an
// injective stride map), the LCG constants and the start states; indices
// come from the LCG's high bits, whose sequence has no short period, so
// every seed makes the same density of conflicts.
func genRacy(r *rng) string {
	const cells, hotSet, perThread = 96, 64, 600
	stride := r.pick(5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37) // coprime to 96
	off := r.between(0, cells-1)
	mul := 4*r.between(100, 4000) + 1 // ≡ 1 mod 4 with an odd increment: full period mod 2^16
	inc := 2*r.between(50, 5000) + 1
	var x0 [4]int
	for i := range x0 {
		x0[i] = r.between(0, 65535)
	}
	return fmt.Sprintf(`
class Hot { field a; field b; }
var cells = null;
var hot = null;

fun churn(id, m, x0) {
  var x = x0;
  for (var i = 0; i < m; i = i + 1) {
    x = (x * %[1]d + %[2]d) %% 65536;
    var c = ((x / 256) %% %[3]d * %[4]d + %[5]d) %% %[6]d;
    var v = cells[c];
    cells[c] = (v + id + 1) %% 65537;
    var f = (x / 16) %% 16;
    if (f == 0) { hot.a = hot.a + 1; }
    if (f == 1) { hot.b = (hot.b + hot.a) %% 65537; }
  }
}

fun main() {
  cells = newarr(%[6]d);
  for (var i = 0; i < %[6]d; i = i + 1) { cells[i] = i; }
  hot = new Hot();
  hot.a = 0;
  hot.b = 0;
  var x0 = newarr(4);
  x0[0] = %[7]d; x0[1] = %[8]d; x0[2] = %[9]d; x0[3] = %[10]d;
  var ts = newarr(4);
  for (var t = 0; t < 4; t = t + 1) { ts[t] = spawn churn(t, %[11]d, x0[t]); }
  for (var t = 0; t < 4; t = t + 1) { join ts[t]; }
  var sum = (hot.a * 7 + hot.b) %% 1000003;
  for (var i = 0; i < %[6]d; i = i + 1) { sum = (sum * 31 + cells[i]) %% 1000003; }
  print(sum);
}
`, mul, inc, hotSet, stride, off, cells, x0[0], x0[1], x0[2], x0[3], perThread)
}

// handoffProgram emits two producer/consumer pairs. Pair p passes
// perPair items, each computed by the statements item from i and salt,
// through
// a bounded queue: array buf<p> with head<p>/tail<p> guarded by the global
// monitor lock<p>, using wait/notify. After taking an item, the consumer
// runs onItem (statements over item and its accumulator acc); at the end
// it adds acc to the global done, guarded by tlock. decls, setup and
// readBack add workload state: its declarations, main's initialization
// after the locks exist, and main's read-back into sum after the joins.
func handoffProgram(capacity, perPair, salt0, salt1 int, item, onItem, decls, setup, readBack string) string {
	var pairs string
	for p := 0; p < 2; p++ {
		pairs += fmt.Sprintf(`
fun produce%[1]d(n, salt) {
  for (var i = 0; i < n; i = i + 1) {
    var item = 0;
    %[3]s
    sync (lock%[1]d) {
      while (tail%[1]d - head%[1]d >= %[2]d) { wait(lock%[1]d); }
      buf%[1]d[tail%[1]d %% %[2]d] = item;
      tail%[1]d = tail%[1]d + 1;
      notify(lock%[1]d);
    }
  }
}

fun consume%[1]d(n) {
  var acc = 0;
  for (var got = 0; got < n; got = got + 1) {
    var item = 0;
    sync (lock%[1]d) {
      while (head%[1]d >= tail%[1]d) { wait(lock%[1]d); }
      item = buf%[1]d[head%[1]d %% %[2]d];
      head%[1]d = head%[1]d + 1;
      notify(lock%[1]d);
    }
%[4]s
  }
  sync (tlock) { done = (done + acc) %% 1000003; }
}
`, p, capacity, item, onItem)
	}
	return fmt.Sprintf(`
var lock0 = null;
var lock1 = null;
var tlock = null;
var buf0 = null;
var buf1 = null;
var head0 = 0;
var tail0 = 0;
var head1 = 0;
var tail1 = 0;
var done = 0;
%[1]s
%[2]s
fun main() {
  lock0 = newmap();
  lock1 = newmap();
  tlock = newmap();
  buf0 = newarr(%[3]d);
  buf1 = newarr(%[3]d);
  for (var i = 0; i < %[3]d; i = i + 1) { buf0[i] = 0; buf1[i] = 0; }
%[4]s
  var ts = newarr(4);
  ts[0] = spawn produce0(%[5]d, %[6]d);
  ts[1] = spawn consume0(%[5]d);
  ts[2] = spawn produce1(%[5]d, %[7]d);
  ts[3] = spawn consume1(%[5]d);
  for (var t = 0; t < 4; t = t + 1) { join ts[t]; }
  var sum = 0;
  sync (lock0) { sum = (head0 + tail0) %% 1000003; }
  sync (lock1) { sum = (sum * 31 + head1 + tail1) %% 1000003; }
  sync (tlock) { sum = (sum * 31 + done) %% 1000003; }
  for (var i = 0; i < %[3]d; i = i + 1) { sum = (sum * 31 + buf0[i] + buf1[i]) %% 1000003; }
%[8]s
  print(sum);
}
`, decls, pairs, capacity, setup, perPair, salt0, salt1, readBack)
}

// genHandoff is monitor-handoff: two producer/consumer pairs pass items
// through bounded monitor queues, and the consumers count what they
// receive in a lock-guarded table.
func genHandoff(r *rng) string {
	const capacity, items = 16, 250
	salt0, salt1 := r.between(1, 997), r.between(1, 997)
	mix := r.pick(29, 31, 37, 41)
	return handoffProgram(capacity, items, salt0, salt1,
		fmt.Sprintf("item = i * 3 + salt;\n    for (var r = 0; r < 8; r = r + 1) { item = (item * %d + r) %% 65537; }", mix),
		`    sync (tlock) {
      table.count = table.count + 1;
      table.sum = (table.sum + item) % 65537;
    }
    for (var r = 0; r < 8; r = r + 1) { item = (item * 31 + r) % 65537; }
    acc = (acc + item) % 1000003;`,
		"class Table { field count; field sum; }\nvar table = null;",
		"  sync (tlock) { table = new Table(); table.count = 0; table.sum = 0; }",
		"  sync (tlock) { sum = (sum * 31 + table.count + table.sum) % 1000003; }")
}

// genService is the always-on "service": two dispatchers each hand
// requests through their own bounded queue to a worker; the workers update
// a lock-guarded request table and a racy hit counter.
func genService(r *rng) string {
	const capacity, perDispatcher = 8, 128
	salt0, salt1 := r.between(1, 500), r.between(1, 500)
	mul := r.pick(13, 17, 19, 23, 29, 31)
	return handoffProgram(capacity, perDispatcher, salt0, salt1,
		fmt.Sprintf("item = (i * %d + salt) %% 997 + 1;", mul),
		`    sync (tlock) {
      requests.served = requests.served + 1;
      requests.bytes = (requests.bytes + item) % 65537;
    }
    hits = hits + 1;
    for (var r = 0; r < 4; r = r + 1) { item = (item * 31 + r) % 65537; }
    acc = (acc + item) % 1000003;`,
		"class Requests { field served; field bytes; }\nvar requests = null;\nvar hits = 0;",
		"  sync (tlock) { requests = new Requests(); requests.served = 0; requests.bytes = 0; }",
		"  sync (tlock) { sum = (sum * 31 + requests.served + requests.bytes) % 1000003; }\n  sum = (sum * 31 + hits) % 1000003;")
}
