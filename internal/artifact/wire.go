package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer builds a canonical little-endian byte stream. It is the
// repository's one wire encoder: CART entries, CSNP device snapshots
// (internal/snapshot), isa program and routine images, and every
// artifact payload are written with it. The owning packages (cfg,
// liveness, core, preempt, harness, snapshot, isa) serialize their own
// types with it so unexported fields never have to cross package
// boundaries.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{} }

// Data returns the accumulated payload bytes.
func (w *Writer) Data() []byte { return w.buf }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I32 encodes v as a 4-byte two's-complement int32.
func (w *Writer) I32(v int) { w.U32(uint32(int32(v))) }

// I64 encodes a signed value as its two's-complement u64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int encodes an int as I64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool encodes false/true as exactly 0/1 (the reader rejects any other
// byte, keeping the form canonical).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 encodes the IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

// Str writes a string as Bytes.
func (w *Writer) Str(v string) {
	w.U32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

// U32s writes a u32 element count, then the elements.
func (w *Writer) U32s(s []uint32) {
	w.U32(uint32(len(s)))
	b := w.Extend(4 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
}

// I32s writes a u32 element count, then each element as I32.
func (w *Writer) I32s(s []int) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.I32(v)
	}
}

// U64s writes a u32 element count, then the elements.
func (w *Writer) U64s(s []uint64) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.U64(v)
	}
}

// I64s writes a u32 element count, then each element as I64.
func (w *Writer) I64s(s []int64) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.I64(v)
	}
}

// Grow makes room for n more bytes. When the room is missing it
// allocates once, and for a request larger than the bytes already
// held, to the exact size asked for: a caller that knows its final size
// grows once, instead of through append's repeated regrowth.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Extend appends n bytes and returns them for the caller to fill. A
// Writer only ever grows by append, so the bytes past its end are zero
// from allocation: the returned bytes are zero, and a caller may skip
// writing the zeros it would write.
func (w *Writer) Extend(n int) []byte {
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// Container framing, shared by CSNP snapshots and CART entries:
//
//	header:  magic | version u16
//	section: id u16 | len u32 | payload | fnv1a64(payload) u64

// Header writes a container header.
func (w *Writer) Header(magic string, version uint16) {
	w.buf = append(w.buf, magic...)
	w.U16(version)
}

// Section frames what put writes to w as one section.
func (w *Writer) Section(id uint16, put func()) {
	w.SummedSection(id, func() Checksum {
		at := len(w.buf)
		put()
		return NewChecksum().Bytes(w.buf[at:])
	})
}

// SummedSection is Section for a put that returns the checksum of the
// payload it wrote, folded while it wrote it, so the payload is never
// read back.
func (w *Writer) SummedSection(id uint16, put func() Checksum) {
	w.U16(id)
	w.U32(0) // the payload length, patched once put returns
	at := len(w.buf)
	sum := put()
	binary.LittleEndian.PutUint32(w.buf[at-4:], uint32(len(w.buf)-at))
	w.U64(uint64(sum))
}

// Reader decodes a stream produced by Writer. It is sticky-error: the
// first failure latches, later reads return zero values, and Close
// reports the latched error (or a canonical-form violation if bytes
// remain unconsumed). Every failure wraps ErrTruncated or ErrCorrupt
// (ErrStale for a container's format version), and a Reader over a
// container or one of its sections names them in its errors.
type Reader struct {
	data  []byte
	off   int
	err   error
	where string // "CSNP section memory", say; "" for a bare payload
}

// NewReader wraps payload bytes for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched decode error, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies the payload was consumed exactly.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.data)-r.off))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err != nil || err == nil {
		return
	}
	if r.where != "" {
		err = fmt.Errorf("%s: %w", r.where, err)
	}
	r.err = err
}

// Fail latches an external decode error (e.g. from a nested codec) so
// the caller's single Err/Close check observes it.
func (r *Reader) Fail(err error) { r.fail(err) }

// Take returns the next n bytes: a view into the underlying buffer,
// copy if retained.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data)))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Offset returns the number of bytes read so far.
func (r *Reader) Offset() int { return r.off }

// Rest returns every byte not yet read, as Take does.
func (r *Reader) Rest() []byte { return r.Take(len(r.data) - r.off) }

func (r *Reader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.Take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 decodes a 4-byte two's-complement int32.
func (r *Reader) I32() int { return int(int32(r.U32())) }

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int decodes an I64 and checks it fits the platform int.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("%w: integer %d overflows int", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: non-canonical bool", ErrCorrupt))
		return false
	}
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes decodes a u32 length prefix and returns the raw bytes (a view
// into the underlying buffer — copy if retained).
func (r *Reader) Bytes() []byte {
	n := r.U32()
	return r.Take(int(n))
}

// Str decodes Bytes as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Len decodes a collection length written by Writer.Int and bounds it
// by the bytes left, at elem bytes or more per element (the element's
// minimum encoded size), so a hostile length fails before it drives an
// allocation.
func (r *Reader) Len(elem int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > (len(r.data)-r.off)/elem {
		r.fail(fmt.Errorf("%w: implausible length %d of %d-byte elements at offset %d of %d", ErrCorrupt, n, elem, r.off, len(r.data)))
		return 0
	}
	return n
}

// Count reads a u32 element count and bounds it by the bytes left, at
// elem bytes or more per element, so a hostile count fails before it
// drives an allocation.
func (r *Reader) Count(elem int) int {
	n := int(r.U32())
	if r.err == nil && n*elem > len(r.data)-r.off {
		r.fail(fmt.Errorf("%w: %d elements of %d bytes at offset %d of %d", ErrTruncated, n, elem, r.off, len(r.data)))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// U32s decodes Writer.U32s; an empty slice decodes as nil.
func (r *Reader) U32s() []uint32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	r.Words(out)
	return out
}

// Words decodes the next 4*len(dst) bytes as little-endian words into
// dst and reports whether any is non-zero. On a failed read dst keeps
// what it held.
func (r *Reader) Words(dst []uint32) (nonZero bool) {
	raw := r.Take(4 * len(dst))
	if raw == nil {
		return false
	}
	var or uint32
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(raw[4*i:])
		or |= dst[i]
	}
	return or != 0
}

// I32s decodes Writer.I32s; an empty slice decodes as nil.
func (r *Reader) I32s() []int { return counted(r, 4, (*Reader).I32) }

// U64s decodes Writer.U64s; an empty slice decodes as nil.
func (r *Reader) U64s() []uint64 { return counted(r, 8, (*Reader).U64) }

// I64s decodes Writer.I64s; an empty slice decodes as nil.
func (r *Reader) I64s() []int64 { return counted(r, 8, (*Reader).I64) }

func counted[T any](r *Reader, elem int, get func(*Reader) T) []T {
	n := r.Count(elem)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(r)
	}
	return out
}

// Header reads a container header and names the container in r's
// later errors. Another magic is ErrCorrupt; another format version is
// ErrStale.
func (r *Reader) Header(magic string, version uint16) {
	r.where = magic
	if m := r.Take(len(magic)); r.err == nil && string(m) != magic {
		r.fail(fmt.Errorf("%w: magic %q", ErrCorrupt, m))
	}
	if v := r.U16(); r.err == nil && v != version {
		r.fail(fmt.Errorf("%w %d, want %d", ErrStale, v, version))
	}
}

// Section reads the next section, which must carry id, checks its
// checksum and returns a Reader over its payload. The payload Reader
// names the section in its errors, and its Close reports every failure
// of the section, framing included, and any earlier failure of r.
func (r *Reader) Section(id uint16, name string) *Reader {
	p, verify := r.DeferredSection(id, name)
	if p.err == nil {
		p.err = verify()
	}
	return p
}

// DeferredSection is Section without the checksum check: verify makes
// it, whenever the caller chooses, so the payload can be decoded and
// used before the bytes are known good.
func (r *Reader) DeferredSection(id uint16, name string) (p *Reader, verify func() error) {
	outer := r.where
	r.where += " section " + name
	got := r.U16()
	payload := r.Take(int(r.U32()))
	sum := Checksum(r.U64())
	if r.err == nil && got != id {
		r.fail(fmt.Errorf("%w: section id %d, want %d", ErrCorrupt, got, id))
	}
	p = &Reader{data: payload, err: r.err, where: r.where}
	r.where = outer
	return p, func() error {
		if NewChecksum().Bytes(payload) != sum {
			return fmt.Errorf("%s: %w: checksum mismatch", p.where, ErrCorrupt)
		}
		return nil
	}
}
