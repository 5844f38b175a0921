package repro_test

import (
	"bufio"
	"encoding/binary"
	"io"
	"sort"

	"repro/internal/trace"
)

// encodeLIGHTLOG1 is the LIGHTLOG1 writer that trace.Encode replaced, kept
// verbatim as the reference side of BenchmarkCodec: every field its own
// varint through a bufio.Writer, locations and counters absolute, a thread in
// every TC, a byte per bool. trace.Decode still reads its output; the
// benchmark checks that it reproduces the committed golden logs byte for
// byte.
func encodeLIGHTLOG1(w io.Writer, l *trace.Log) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("LIGHTLOG1"); err != nil {
		return err
	}
	e := &v1Encoder{w: bw}
	e.str(l.Tool)
	e.u64(l.Seed)
	e.u64(uint64(len(l.Threads)))
	for _, t := range l.Threads {
		e.str(t)
	}
	e.u64(uint64(l.NumLocs))
	e.u64(uint64(len(l.Deps)))
	for _, d := range l.Deps {
		e.i64(int64(d.Loc))
		e.tc(d.W)
		e.tc(d.R)
	}
	e.u64(uint64(len(l.Ranges)))
	for _, r := range l.Ranges {
		e.i64(int64(r.Loc))
		e.i64(int64(r.Thread))
		e.u64(r.Start)
		e.u64(r.End)
		e.tc(r.W)
		e.bool(r.HasWrite)
		e.bool(r.StartsWithRead)
	}
	tids := make([]int32, 0, len(l.Syscalls))
	for t := range l.Syscalls {
		tids = append(tids, t)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	e.u64(uint64(len(tids)))
	for _, t := range tids {
		recs := l.Syscalls[t]
		e.i64(int64(t))
		e.u64(uint64(len(recs)))
		for _, r := range recs {
			e.u64(r.Seq)
			e.i64(r.Value)
		}
	}
	e.i64(l.SpaceLongs)
	e.u64(uint64(len(l.Bugs)))
	for _, b := range l.Bugs {
		e.i64(int64(b.Kind))
		e.str(b.ThreadPath)
		e.i64(int64(b.FuncID))
		e.i64(int64(b.PC))
		e.str(b.Value)
		e.str(b.Msg)
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

type v1Encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *v1Encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *v1Encoder) i64(v int64) {
	if e.err != nil {
		return
	}
	n := binary.PutVarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *v1Encoder) bool(b bool) {
	if b {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

func (e *v1Encoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *v1Encoder) tc(tc trace.TC) {
	e.i64(int64(tc.Thread))
	e.u64(tc.Counter)
}
