package models

import (
	"encoding/binary"
	"io"
	"math"
	"sync"
)

// WriteDigest streams a canonical binary walk of the model into w: every
// field of the model, its tensors and its kernels, in declaration order,
// integers as signed varints, floats as their eight IEEE-754 bytes,
// strings and slices prefixed with their length. Every element is
// self-delimiting, so the encoding is prefix-free: two models produce the
// same byte stream only if they agree field by field — which is what lets
// the result cache hash this walk (sched.Key, cluster.Key) instead of the
// much more expensive SaveJSON text. The walk is not a storage format and
// has no reader; changing it changes every cache key, so bump the key
// headers that version it when it does.
//
// Two models the simulator cannot tell apart but the walk could are
// folded together: a nil and an empty Reads slice both have length zero,
// and a ReadFactor of -0 is written as +0 (SaveJSON omits both).
func (m *Model) WriteDigest(w io.Writer) error {
	buf := digestBufs.Get().(*[]byte)
	d := digestWriter{w: w, buf: (*buf)[:0]}
	d.str(m.Name)
	d.int(int64(m.BatchSize))
	d.int(int64(len(m.Tensors)))
	for i := range m.Tensors {
		t := &m.Tensors[i]
		d.int(int64(t.ID))
		d.str(t.Name)
		d.int(t.Bytes)
		d.int(int64(t.Kind))
	}
	d.int(int64(len(m.Kernels)))
	for i := range m.Kernels {
		k := &m.Kernels[i]
		d.str(k.Name)
		d.int(int64(k.Phase))
		d.ids(k.Reads)
		d.ids(k.Writes)
		d.float(k.FLOPs)
		rf := k.ReadFactor
		if rf == 0 {
			rf = 0 // -0 becomes +0
		}
		d.float(rf)
	}
	d.flush()
	*buf = d.buf
	digestBufs.Put(buf)
	return d.err
}

// digestBufSize is how many bytes digestWriter gathers before handing
// them to the underlying writer: a hash consumes a few kilobytes per
// call far faster than a few bytes per call.
const digestBufSize = 4096

// digestBufs recycles the gathering buffers: a cluster key digests one
// small model per tenant, and a fresh buffer each would cost more than
// the walk.
var digestBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*digestBufSize)
	return &b
}}

// digestWriter gathers WriteDigest's fields in one reused buffer and
// remembers the first write error.
type digestWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// flush hands the gathered bytes to the writer. The writer must not keep
// them: the buffer is reused at once.
func (d *digestWriter) flush() {
	if d.err == nil && len(d.buf) > 0 {
		_, d.err = d.w.Write(d.buf)
	}
	d.buf = d.buf[:0]
}

func (d *digestWriter) int(v int64) {
	d.buf = binary.AppendVarint(d.buf, v)
	if len(d.buf) >= digestBufSize {
		d.flush()
	}
}

func (d *digestWriter) float(f float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(f))
}

func (d *digestWriter) str(s string) {
	d.int(int64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digestWriter) ids(ids []int) {
	d.int(int64(len(ids)))
	for _, id := range ids {
		d.int(int64(id))
	}
}
