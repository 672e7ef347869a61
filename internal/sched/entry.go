package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
)

// The body of a disk cache entry is a 32-byte type fingerprint followed by
// the value's binary payload. The payload writes a struct's exported
// fields in declaration order, with no names or tags:
//
//   - bool: one byte, 0 or 1;
//   - signed ints: a zig-zag varint; unsigned ints: a varint;
//   - float64: its 8 raw bits, little-endian, so decoded floats are
//     bit-exact (NaN payloads included);
//   - string: a varint length, then the bytes;
//   - slice: a varint len+1, 0 meaning nil (nil and empty stay distinct
//     for reflect.DeepEqual), then the elements;
//   - pointer: a presence byte, then the pointee when it is 1.
//
// Nothing else is supported: a map, interface, func, chan, array or
// float32 anywhere in a stored type is an error naming the field, never a
// skipped field. The fingerprint is a SHA-256 over the type's structure
// (kind, package path, name and every exported field's name and type,
// recursively), built by the same walk that compiles the coder, so a
// value decodes only into the exact type shape it was encoded from.

// errStale marks an entry that is well-formed but was written by another
// format version or for another type shape: a plain miss, not corruption.
var errStale = errors.New("sched: cache entry written for another format or type")

// entryCodec is the compiled coder of one stored type T.
type entryCodec struct {
	fp  [sha256.Size]byte
	c   *typeCodec
	err error // T (or a type it reaches) has an unsupported kind
}

// typeCodec encodes and decodes one type's payload.
type typeCodec struct {
	desc string // canonical structure, the fingerprint's preimage
	min  int    // fewest payload bytes a value can take
	enc  func(e *encoder, v reflect.Value)
	dec  func(d *decoder, v reflect.Value)
}

// entryCodecs caches one *entryCodec per reflect.Type, the way
// encoding/json caches its per-type coders.
var entryCodecs sync.Map

func codecFor(t reflect.Type) *entryCodec {
	if c, ok := entryCodecs.Load(t); ok {
		return c.(*entryCodec)
	}
	ec := &entryCodec{}
	tc, err := (&compiler{done: map[reflect.Type]*typeCodec{}, active: map[reflect.Type]bool{}}).compile(t, t.String())
	if err != nil {
		ec.err = fmt.Errorf("sched: cache entry: %w", err)
	} else {
		ec.c, ec.fp = tc, sha256.Sum256([]byte(tc.desc))
	}
	c, _ := entryCodecs.LoadOrStore(t, ec)
	return c.(*entryCodec)
}

// codecOf returns the codec of the type v points to; v must be a non-nil
// *T with a type the codec supports.
func codecOf(v any) (*entryCodec, error) {
	t := reflect.TypeOf(v)
	if t == nil || t.Kind() != reflect.Pointer || reflect.ValueOf(v).IsNil() {
		return nil, fmt.Errorf("sched: cache entry: want a non-nil pointer, got %T", v)
	}
	ec := codecFor(t.Elem())
	if ec.err != nil {
		return nil, ec.err
	}
	return ec, nil
}

// encode returns the entry body of v, a *T of ec's type T.
func (ec *entryCodec) encode(v any) []byte {
	e := encoder{buf: append(make([]byte, 0, 4096), ec.fp[:]...)}
	ec.c.enc(&e, reflect.ValueOf(v).Elem())
	return e.buf
}

// WriteKey writes the cache-key preimage of v into w: the fingerprint of
// v's type, then v's payload. It is the entry codec itself, so a key moves
// with every exported field — by name and type through the fingerprint,
// by value through the payload. A non-nil pointer anywhere in v is live
// state no key can capture, and an error naming the field; so is a type
// the codec cannot encode.
func WriteKey(w io.Writer, v any) error {
	ec := codecFor(reflect.TypeOf(v))
	if ec.err != nil {
		return ec.err
	}
	e := encoder{buf: append(make([]byte, 0, 256), ec.fp[:]...), key: true}
	ec.c.enc(&e, reflect.ValueOf(v))
	if e.err != nil {
		return fmt.Errorf("sched: key: %w", e.err)
	}
	_, err := w.Write(e.buf)
	return err
}

// Decode is the decode hook GetAny and Memo take for a value stored as a
// *T: it rebuilds a *T from a verified disk entry's body. A body whose
// fingerprint is not T's reports a stale entry (a miss); a payload that
// is truncated, has trailing bytes or claims an impossible length is an
// error. Every length is checked against the bytes left before anything
// is allocated, so a hostile body costs memory linear in its size.
func Decode[T any](body []byte) (any, error) {
	ec := codecFor(reflect.TypeFor[T]())
	if ec.err != nil {
		return nil, ec.err
	}
	if len(body) < len(ec.fp) || !bytes.Equal(body[:len(ec.fp)], ec.fp[:]) {
		return nil, errStale
	}
	r := new(T)
	d := decoder{b: body[len(ec.fp):]}
	ec.c.dec(&d, reflect.ValueOf(r).Elem())
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("sched: cache entry: %w", d.err)
	}
	return r, nil
}

// compiler builds the typeCodecs of one stored type. A type reachable
// twice is compiled once; a type reachable from itself is rejected (no
// stored type is recursive, and the fingerprint walk would not end).
type compiler struct {
	done   map[reflect.Type]*typeCodec
	active map[reflect.Type]bool
}

func (c *compiler) compile(t reflect.Type, path string) (*typeCodec, error) {
	if tc, ok := c.done[t]; ok {
		return tc, nil
	}
	if c.active[t] {
		return nil, fmt.Errorf("%s: recursive type %s is not supported", path, t)
	}
	c.active[t] = true
	defer delete(c.active, t)

	desc := t.Kind().String() + " " + t.PkgPath() + "." + t.Name()
	tc := &typeCodec{desc: desc, min: 1}
	switch t.Kind() {
	case reflect.Bool:
		tc.enc = func(e *encoder, v reflect.Value) {
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			e.buf = append(e.buf, b)
		}
		tc.dec = func(d *decoder, v reflect.Value) { v.SetBool(d.flag()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		tc.enc = func(e *encoder, v reflect.Value) { e.buf = binary.AppendVarint(e.buf, v.Int()) }
		tc.dec = func(d *decoder, v reflect.Value) {
			x := d.varint()
			if v.OverflowInt(x) {
				d.fail("%d overflows %s", x, v.Type())
				return
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		tc.enc = func(e *encoder, v reflect.Value) { e.buf = binary.AppendUvarint(e.buf, v.Uint()) }
		tc.dec = func(d *decoder, v reflect.Value) {
			x := d.uvarint()
			if v.OverflowUint(x) {
				d.fail("%d overflows %s", x, v.Type())
				return
			}
			v.SetUint(x)
		}
	case reflect.Float64:
		tc.min = 8
		tc.enc = func(e *encoder, v reflect.Value) {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
		}
		tc.dec = func(d *decoder, v reflect.Value) {
			if b := d.take(8); b != nil {
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		}
	case reflect.String:
		tc.enc = func(e *encoder, v reflect.Value) {
			s := v.String()
			e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
			e.buf = append(e.buf, s...)
		}
		tc.dec = func(d *decoder, v reflect.Value) {
			if b := d.take(d.length(d.uvarint(), 1)); len(b) > 0 {
				v.SetString(string(b))
			}
		}
	case reflect.Slice:
		elem, err := c.compile(t.Elem(), path+"[]")
		if err != nil {
			return nil, err
		}
		tc.desc += " [" + elem.desc + "]"
		tc.enc = func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.buf = append(e.buf, 0)
				return
			}
			n := v.Len()
			e.buf = binary.AppendUvarint(e.buf, uint64(n)+1)
			for i := 0; i < n; i++ {
				elem.enc(e, v.Index(i))
			}
		}
		tc.dec = func(d *decoder, v reflect.Value) {
			x := d.uvarint()
			if x == 0 {
				return // nil: the zero value already is
			}
			n := d.length(x-1, elem.min)
			if d.err != nil {
				return
			}
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n && d.err == nil; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Pointer:
		elem, err := c.compile(t.Elem(), "(*"+path+")")
		if err != nil {
			return nil, err
		}
		tc.desc += " *" + elem.desc
		tc.enc = func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.buf = append(e.buf, 0)
				return
			}
			if e.key {
				if e.err == nil {
					e.err = fmt.Errorf("%s carries live state (%s)", path, t)
				}
				return
			}
			e.buf = append(e.buf, 1)
			elem.enc(e, v.Elem())
		}
		tc.dec = func(d *decoder, v reflect.Value) {
			if d.flag() {
				p := reflect.New(v.Type().Elem())
				elem.dec(d, p.Elem())
				v.Set(p)
			}
		}
	case reflect.Struct:
		type field struct {
			i int
			c *typeCodec
		}
		var fields []field
		var b strings.Builder
		b.WriteString(desc + " {")
		tc.min = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				if f.Anonymous {
					return nil, fmt.Errorf("%s.%s: unexported embedded field is not supported", path, f.Name)
				}
				continue
			}
			fc, err := c.compile(f.Type, path+"."+f.Name)
			if err != nil {
				return nil, err
			}
			fields = append(fields, field{i, fc})
			tc.min += fc.min
			fmt.Fprintf(&b, "%s %s;", f.Name, fc.desc)
		}
		b.WriteString("}")
		tc.desc = b.String()
		tc.enc = func(e *encoder, v reflect.Value) {
			for _, f := range fields {
				f.c.enc(e, v.Field(f.i))
			}
		}
		tc.dec = func(d *decoder, v reflect.Value) {
			for _, f := range fields {
				f.c.dec(d, v.Field(f.i))
			}
		}
	default:
		return nil, fmt.Errorf("%s: kind %s (%s) is not supported", path, t.Kind(), t)
	}
	c.done[t] = tc
	return tc, nil
}

// encoder appends a payload. A key encoder (WriteKey) refuses non-nil
// pointers: the first one sets err.
type encoder struct {
	buf []byte
	key bool
	err error
}

// decoder consumes a payload. The first error sticks and empties the
// input, so every later read fails at once and the walk ends quickly.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// take consumes n bytes; it returns nil (and fails) when fewer are left.
func (d *decoder) take(n int) []byte {
	if n > len(d.b) {
		d.fail("truncated: want %d bytes, have %d", n, len(d.b))
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// length checks a count of items, each at least min bytes long, against
// the bytes left, before the caller allocates for them.
func (d *decoder) length(n uint64, min int) int {
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)/min) {
		d.fail("length %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// flag reads a bool or presence byte: exactly 0 or 1.
func (d *decoder) flag() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail("flag byte %d", b[0])
		return false
	}
	return b[0] == 1
}
