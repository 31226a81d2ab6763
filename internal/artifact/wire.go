package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer builds a canonical little-endian payload. It is the shared
// low-level encoder for every artifact payload: the owning packages
// (cfg, liveness, core, preempt, harness) serialize their own types with
// it so unexported fields never have to cross package boundaries.
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

// Reader decodes a payload produced by Writer. It is sticky-error: the
// first failure latches, later reads return zero values, and Close
// reports the latched error (or a canonical-form violation if bytes
// remain unconsumed).
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps payload bytes for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched decode error, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies the payload was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		r.err = fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.data)-r.off)
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail latches an external decode error (e.g. from a nested codec) so
// the caller's single Err/Close check observes it.
func (r *Reader) Fail(err error) { r.fail(err) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data)))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

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
	return r.take(int(n))
}

// Str decodes Bytes as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Len counts a non-negative collection length and bounds it by the
// remaining payload so corrupt lengths fail fast instead of allocating.
func (r *Reader) Len() int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail(fmt.Errorf("%w: implausible collection length %d", ErrCorrupt, n))
		return 0
	}
	return n
}
