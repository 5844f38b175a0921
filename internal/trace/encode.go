package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Codec metrics: wire volume and event throughput of Encode (DESIGN.md §7).
var (
	mEncodedBytes = obs.NewCounter("light_trace_encoded_bytes_total",
		"bytes written by the log encoder")
	mEncodedEvents = obs.NewCounter("light_trace_encoded_events_total",
		"events (deps, ranges, syscall records) written by the log encoder")
)

// Binary log format: a magic header followed by varint-coded sections, stdlib
// only. It is what `lightrr record -o` writes and `lightrr solve/replay`
// reads. Encode writes LIGHTLOG2; Decode reads LIGHTLOG2 and the LIGHTLOG1
// format it replaced, so older logs and WAL segments stay readable.
//
// LIGHTLOG1 writes every field as its own varint: absolute locations and
// counters, a thread in every TC, a byte per bool.
//
// LIGHTLOG2 keeps the log's order and codes each dependence and range against
// the one before it (DESIGN.md §9 has the layout):
//
//   - A dependence is one header uvarint (zigzag(ΔR.Counter)+1)·S + wcode,
//     S = len(Threads)+2, then zigzag(ΔLoc), then the writer's counter: the
//     distance back from the reader for the reader's own thread (wcode 1),
//     nothing for a location's initial value (wcode 0), and for table
//     thread t (wcode 2+t) a zigzag delta from the last counter coded for t.
//     Dependences and range sources share those last counters.
//   - A range is one header uvarint
//     ((zigzag(ΔStart)+1)·2 + HasWrite)·(S+1) + wcode, then End−Start and
//     zigzag(ΔLoc), then the writer's counter.
//     wcode 0 is a range that starts with a write, whose writer is zero and
//     omitted; the others start with a read: 1 an initial value, 2 the
//     range's own thread (coded as Start−W.Counter), 3+t table thread t.
//   - A header of 0 escapes to a raw item that spells out every field. It
//     starts a new thread's run of items, and it carries whatever the fast
//     codes cannot: a writer outside the thread table, an initial value
//     with a nonzero counter, a write-first range with a nonzero writer, a
//     header that would overflow 64 bits. Encode is therefore total over
//     every Log, and Decode(Encode(l)) equals l.
//   - Syscall sequence numbers are zigzag deltas within their thread.
//
// Counter and start deltas are taken modulo 2^64, so they are exact for
// every value; only a delta that does not fit the header takes the escape.
const (
	magicV1  = "LIGHTLOG1"
	magicV2  = "LIGHTLOG2"
	magicLen = len(magicV2)
)

// encodePool holds encode buffers between calls: Encode hands the whole
// encoding to one Write and keeps nothing.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// Encode writes the log in binary form (LIGHTLOG2).
func Encode(w io.Writer, l *Log) error {
	span := obs.StartSpan("encode")
	bp := encodePool.Get().(*[]byte)
	buf := appendLog((*bp)[:0], l)
	_, err := w.Write(buf)
	*bp = buf
	encodePool.Put(bp)
	if err != nil {
		return err
	}
	mEncodedBytes.Add(uint64(len(buf)))
	mEncodedEvents.Add(uint64(l.Events()))
	span.SetBytes(int64(len(buf)))
	span.SetItems(int64(l.Events()))
	span.End()
	return nil
}

// EncodedBytes returns the log's exact wire size under Encode without
// retaining the encoding.
func EncodedBytes(l *Log) (int64, error) {
	bp := encodePool.Get().(*[]byte)
	*bp = appendLog((*bp)[:0], l)
	n := len(*bp)
	encodePool.Put(bp)
	return int64(n), nil
}

// zigzag maps a signed delta to an unsigned one, small magnitudes first.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Dependence writer codes (the low part of a dependence header).
const (
	depWInitial = 0 // {InitialThread, 0}
	depWOwn     = 1 // the reader's thread; counter coded as R.Counter-W.Counter
	depWTable   = 2 // + t: table thread t; counter delta from last[t]
)

// Range writer codes (the low part of a range header). Code 0 is a range
// that starts with a write, whose W the recorder leaves zero; every other
// code is a range that starts with a read.
const (
	rangeWNone    = 0 // !StartsWithRead, W == TC{}
	rangeWInitial = 1 // {InitialThread, 0}
	rangeWOwn     = 2 // the range's thread; counter coded as Start-W.Counter
	rangeWTable   = 3 // + t: table thread t; counter delta from last[t]
)

// appendLog appends the LIGHTLOG2 encoding of l to b.
func appendLog(b []byte, l *Log) []byte {
	nt := len(l.Threads)
	b = append(b, magicV2...)
	b = appendStr(b, l.Tool)
	b = binary.AppendUvarint(b, l.Seed)
	b = binary.AppendUvarint(b, uint64(nt))
	for _, t := range l.Threads {
		b = appendStr(b, t)
	}
	b = binary.AppendVarint(b, int64(l.NumLocs))

	// last[t] is the last writer counter coded for table thread t.
	last := make([]uint64, nt)
	inTable := func(t int32) bool { return t >= 0 && int(t) < nt }

	S := uint64(nt) + depWTable
	depMax := math.MaxUint64/S - 1 // largest zigzag ΔR.Counter that fits a header
	b = binary.AppendUvarint(b, uint64(len(l.Deps)))
	var thr int32
	var rc uint64
	var loc int32
	for _, d := range l.Deps {
		dr := zigzag(int64(d.R.Counter - rc))
		wcode := uint64(math.MaxUint64)
		switch {
		case d.W == TC{InitialThread, 0}:
			wcode = depWInitial
		case d.W.Thread == d.R.Thread:
			wcode = depWOwn
		case inTable(d.W.Thread):
			wcode = depWTable + uint64(d.W.Thread)
		}
		if d.R.Thread != thr || wcode == math.MaxUint64 || dr >= depMax {
			b = append(b, 0)
			b = binary.AppendVarint(b, int64(d.R.Thread))
			b = binary.AppendUvarint(b, d.R.Counter)
			b = binary.AppendVarint(b, int64(d.Loc)-int64(loc))
			b = binary.AppendVarint(b, int64(d.W.Thread))
			b = binary.AppendUvarint(b, d.W.Counter)
		} else {
			b = binary.AppendUvarint(b, (dr+1)*S+wcode)
			b = binary.AppendVarint(b, int64(d.Loc)-int64(loc))
			switch {
			case wcode == depWOwn:
				b = binary.AppendUvarint(b, d.R.Counter-d.W.Counter)
			case wcode >= depWTable:
				t := d.W.Thread
				b = binary.AppendVarint(b, int64(d.W.Counter-last[t]))
				last[t] = d.W.Counter
			}
		}
		thr, rc, loc = d.R.Thread, d.R.Counter, d.Loc
	}

	SR := uint64(nt) + rangeWTable
	rangeMax := math.MaxUint64/(2*SR) - 1 // largest zigzag ΔStart that fits a header
	b = binary.AppendUvarint(b, uint64(len(l.Ranges)))
	var start uint64
	thr, loc = 0, 0
	for _, r := range l.Ranges {
		ds := zigzag(int64(r.Start - start))
		hasWrite := uint64(0)
		if r.HasWrite {
			hasWrite = 1
		}
		wcode := uint64(math.MaxUint64)
		switch {
		case !r.StartsWithRead:
			if r.W == (TC{}) {
				wcode = rangeWNone
			}
		case r.W == TC{InitialThread, 0}:
			wcode = rangeWInitial
		case r.W.Thread == r.Thread:
			wcode = rangeWOwn
		case inTable(r.W.Thread):
			wcode = rangeWTable + uint64(r.W.Thread)
		}
		if r.Thread != thr || wcode == math.MaxUint64 || ds >= rangeMax {
			flags := hasWrite
			if r.StartsWithRead {
				flags |= 2
			}
			b = append(b, 0)
			b = binary.AppendVarint(b, int64(r.Thread))
			b = binary.AppendUvarint(b, r.Start)
			b = binary.AppendUvarint(b, r.End-r.Start)
			b = binary.AppendVarint(b, int64(r.Loc)-int64(loc))
			b = append(b, byte(flags))
			b = binary.AppendVarint(b, int64(r.W.Thread))
			b = binary.AppendUvarint(b, r.W.Counter)
		} else {
			b = binary.AppendUvarint(b, ((ds+1)*2+hasWrite)*SR+wcode)
			b = binary.AppendUvarint(b, r.End-r.Start)
			b = binary.AppendVarint(b, int64(r.Loc)-int64(loc))
			switch {
			case wcode == rangeWOwn:
				b = binary.AppendUvarint(b, r.Start-r.W.Counter)
			case wcode >= rangeWTable:
				t := r.W.Thread
				b = binary.AppendVarint(b, int64(r.W.Counter-last[t]))
				last[t] = r.W.Counter
			}
		}
		thr, start, loc = r.Thread, r.Start, r.Loc
	}

	// Syscall map in deterministic thread order.
	tids := make([]int32, 0, len(l.Syscalls))
	for t := range l.Syscalls {
		tids = append(tids, t)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	b = binary.AppendUvarint(b, uint64(len(tids)))
	for _, t := range tids {
		recs := l.Syscalls[t]
		b = binary.AppendVarint(b, int64(t))
		b = binary.AppendUvarint(b, uint64(len(recs)))
		var seq uint64
		for _, r := range recs {
			b = binary.AppendVarint(b, int64(r.Seq-seq))
			b = binary.AppendVarint(b, r.Value)
			seq = r.Seq
		}
	}
	b = binary.AppendVarint(b, l.SpaceLongs)
	b = binary.AppendUvarint(b, uint64(len(l.Bugs)))
	for _, g := range l.Bugs {
		b = binary.AppendVarint(b, int64(g.Kind))
		b = appendStr(b, g.ThreadPath)
		b = binary.AppendVarint(b, int64(g.FuncID))
		b = binary.AppendVarint(b, int64(g.PC))
		b = appendStr(b, g.Value)
		b = appendStr(b, g.Msg)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decode reads a log written by Encode, in either format.
func Decode(r io.Reader) (*Log, error) {
	var in bytes.Buffer
	if _, err := io.Copy(&in, r); err != nil {
		return nil, fmt.Errorf("trace: reading log: %w", err)
	}
	data := in.Bytes()
	if len(data) < magicLen {
		return nil, errors.New("trace: reading magic: unexpected EOF")
	}
	d := &decoder{b: data, i: magicLen}
	var l *Log
	switch string(data[:magicLen]) {
	case magicV2:
		l = d.logV2()
	case magicV1:
		l = d.logV1()
	default:
		return nil, errors.New("trace: not a Light log (bad magic)")
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: %w", d.err)
	}
	return l, nil
}

// decoder reads varints from an in-memory encoding. After the first error
// every read returns zero, so callers check err once per item.
type decoder struct {
	b   []byte
	i   int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.i = len(d.b)
}

func (d *decoder) u64() uint64 {
	if d.i < len(d.b) && d.b[d.i] < 0x80 {
		v := d.b[d.i]
		d.i++
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		if n == 0 {
			d.fail(io.ErrUnexpectedEOF)
		} else {
			d.fail(errors.New("varint overflows 64 bits"))
		}
		return 0
	}
	d.i += n
	return v
}

func (d *decoder) i64() int64 {
	return unzigzag(d.u64()) // binary.AppendVarint's zigzag
}

// i32 reads a varint that must fit an int32.
func (d *decoder) i32() int32 {
	v := d.i64()
	if v != int64(int32(v)) {
		d.fail(fmt.Errorf("value %d overflows int32", v))
		return 0
	}
	return int32(v)
}

// loc applies a zigzag location delta to prev.
func (d *decoder) loc(prev int32) int32 {
	v := int64(prev) + d.i64()
	if v != int64(int32(v)) {
		d.fail(fmt.Errorf("location %d overflows int32", v))
		return 0
	}
	return int32(v)
}

func (d *decoder) byte() byte {
	if d.i >= len(d.b) {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	d.i++
	return d.b[d.i-1]
}

// count reads an item count and rejects one that the remaining input could
// not hold at minBytes per item, so a corrupt count never allocates ahead of
// the data.
func (d *decoder) count(minBytes int) int {
	n := d.u64()
	if n > uint64((len(d.b)-d.i)/minBytes) {
		d.fail(fmt.Errorf("count %d exceeds the remaining %d bytes", n, len(d.b)-d.i))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.u64()
	if n > uint64(len(d.b)-d.i) {
		d.fail(io.ErrUnexpectedEOF)
		return ""
	}
	s := string(d.b[d.i : d.i+int(n)])
	d.i += int(n)
	return s
}

// header reads the fields both formats open with.
func (d *decoder) header() *Log {
	l := &Log{Syscalls: make(map[int32][]SyscallRec)}
	l.Tool = d.str()
	l.Seed = d.u64()
	if n := d.count(1); n > 0 {
		l.Threads = make([]string, n)
		for i := range l.Threads {
			l.Threads[i] = d.str()
		}
	}
	return l
}

// bugs reads the bug records, which both formats lay out alike.
func (d *decoder) bugs() []Bug {
	n := d.count(6)
	if n == 0 {
		return nil
	}
	bugs := make([]Bug, n)
	for i := range bugs {
		g := &bugs[i]
		g.Kind = int32(d.i64())
		g.ThreadPath = d.str()
		g.FuncID = int32(d.i64())
		g.PC = int32(d.i64())
		g.Value = d.str()
		g.Msg = d.str()
	}
	return bugs
}

// logV2 reads the body of a LIGHTLOG2 encoding (see appendLog).
func (d *decoder) logV2() *Log {
	l := d.header()
	l.NumLocs = d.i32()
	nt := len(l.Threads)
	last := make([]uint64, nt)

	S := uint64(nt) + depWTable
	if n := d.count(2); n > 0 {
		l.Deps = make([]Dep, n)
		var thr int32
		var rc uint64
		var loc int32
		for i := range l.Deps {
			dep := &l.Deps[i]
			if h := d.u64(); h == 0 {
				dep.R.Thread = d.i32()
				dep.R.Counter = d.u64()
				dep.Loc = d.loc(loc)
				dep.W.Thread = d.i32()
				dep.W.Counter = d.u64()
			} else {
				q, wcode := h/S, h%S
				if q == 0 {
					d.fail(fmt.Errorf("dependence %d: bad header %d", i, h))
				}
				dep.R = TC{thr, rc + uint64(unzigzag(q-1))}
				dep.Loc = d.loc(loc)
				switch {
				case wcode == depWInitial:
					dep.W = TC{InitialThread, 0}
				case wcode == depWOwn:
					dep.W = TC{thr, dep.R.Counter - d.u64()}
				default:
					t := wcode - depWTable
					last[t] += uint64(d.i64())
					dep.W = TC{int32(t), last[t]}
				}
			}
			if d.err != nil {
				return nil
			}
			thr, rc, loc = dep.R.Thread, dep.R.Counter, dep.Loc
		}
	}

	SR := uint64(nt) + rangeWTable
	if n := d.count(3); n > 0 {
		l.Ranges = make([]Range, n)
		var thr int32
		var start uint64
		var loc int32
		for i := range l.Ranges {
			r := &l.Ranges[i]
			if h := d.u64(); h == 0 {
				r.Thread = d.i32()
				r.Start = d.u64()
				r.End = r.Start + d.u64()
				r.Loc = d.loc(loc)
				flags := d.byte()
				r.W.Thread = d.i32()
				r.W.Counter = d.u64()
				if flags > 3 {
					d.fail(fmt.Errorf("range %d: bad flags %d", i, flags))
				}
				r.HasWrite = flags&1 != 0
				r.StartsWithRead = flags&2 != 0
			} else {
				q, wcode := h/SR, h%SR
				if q < 2 {
					d.fail(fmt.Errorf("range %d: bad header %d", i, h))
				}
				r.Thread = thr
				r.Start = start + uint64(unzigzag(q/2-1))
				r.End = r.Start + d.u64()
				r.Loc = d.loc(loc)
				r.HasWrite = q%2 != 0
				r.StartsWithRead = wcode != rangeWNone
				switch {
				case wcode == rangeWNone:
				case wcode == rangeWInitial:
					r.W = TC{InitialThread, 0}
				case wcode == rangeWOwn:
					r.W = TC{thr, r.Start - d.u64()}
				default:
					t := wcode - rangeWTable
					last[t] += uint64(d.i64())
					r.W = TC{int32(t), last[t]}
				}
			}
			if d.err != nil {
				return nil
			}
			thr, start, loc = r.Thread, r.Start, r.Loc
		}
	}

	nSys := d.count(2)
	for i := 0; i < nSys && d.err == nil; i++ {
		t := d.i32()
		recs := make([]SyscallRec, d.count(2))
		var seq uint64
		for j := range recs {
			seq += uint64(d.i64())
			recs[j] = SyscallRec{Seq: seq, Value: d.i64()}
		}
		l.Syscalls[t] = recs
	}
	l.SpaceLongs = d.i64()
	l.Bugs = d.bugs()
	if d.err == nil && d.i != len(d.b) {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)-d.i))
	}
	return l
}

// logV1 reads the body of a LIGHTLOG1 encoding: every field its own varint,
// locations and counters absolute, a thread in every TC, a byte per bool.
func (d *decoder) logV1() *Log {
	l := d.header()
	l.NumLocs = int32(d.u64())
	tc := func() TC { return TC{Thread: int32(d.i64()), Counter: d.u64()} }
	if n := d.count(5); n > 0 {
		l.Deps = make([]Dep, n)
		for i := range l.Deps {
			l.Deps[i] = Dep{Loc: int32(d.i64()), W: tc(), R: tc()}
		}
	}
	if n := d.count(8); n > 0 {
		l.Ranges = make([]Range, n)
		for i := range l.Ranges {
			r := &l.Ranges[i]
			r.Loc = int32(d.i64())
			r.Thread = int32(d.i64())
			r.Start = d.u64()
			r.End = d.u64()
			r.W = tc()
			r.HasWrite = d.u64() != 0
			r.StartsWithRead = d.u64() != 0
		}
	}
	nSys := d.count(2)
	for i := 0; i < nSys && d.err == nil; i++ {
		t := int32(d.i64())
		recs := make([]SyscallRec, d.count(2))
		for j := range recs {
			recs[j] = SyscallRec{Seq: d.u64(), Value: d.i64()}
		}
		l.Syscalls[t] = recs
	}
	l.SpaceLongs = d.i64()
	l.Bugs = d.bugs()
	return l
}
