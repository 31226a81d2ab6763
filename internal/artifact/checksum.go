package artifact

import "encoding/binary"

// FNV-1a 64 parameters, and powers of the prime modulo 2^64. FNV-1a on a
// zero byte is h = (h ^ 0) * p = h * p, so a run of k zero bytes
// multiplies h by p^k: folding the run into one multiply is exact.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	mod64      = 1 << 64
	fnvPrime2  = fnvPrime * fnvPrime % mod64
	fnvPrime4  = fnvPrime2 * fnvPrime2 % mod64
	fnvPrime8  = fnvPrime4 * fnvPrime4 % mod64
	fnvPrime16 = fnvPrime8 * fnvPrime8 % mod64
	fnvPrime32 = fnvPrime16 * fnvPrime16 % mod64
	fnvPrime64 = fnvPrime32 * fnvPrime32 % mod64
)

// Checksum is a running 64-bit FNV-1a hash: the section checksum of every
// container in the repository (CART entries here, CSNP device snapshots
// in internal/snapshot), the saved-context checksum (internal/sim) and
// the serve state witness (internal/sched). It
// equals hash/fnv's New64a over the same bytes. It scans 64-byte blocks
// and folds each all-zero block, or all-zero 8-byte word of a mixed
// block, into one multiply, so a zero-heavy device image hashes at
// memory speed while a bit flipped anywhere, inside a zero run too,
// still changes the sum.
type Checksum uint64

// NewChecksum returns the checksum of no bytes.
func NewChecksum() Checksum { return fnvOffset }

// Bytes returns h extended by b.
func (h Checksum) Bytes(b []byte) Checksum {
	le := binary.LittleEndian
	for ; len(b) >= 64; b = b[64:] {
		b := b[:64:64]
		h = h.block(le.Uint64(b[0:]), le.Uint64(b[8:]), le.Uint64(b[16:]), le.Uint64(b[24:]),
			le.Uint64(b[32:]), le.Uint64(b[40:]), le.Uint64(b[48:]), le.Uint64(b[56:]))
	}
	for ; len(b) >= 8; b = b[8:] {
		h = h.Word(le.Uint64(b))
	}
	for _, c := range b {
		h = (h ^ Checksum(c)) * fnvPrime
	}
	return h
}

// Words returns h extended by the little-endian bytes of words, without
// staging them in a byte buffer.
func (h Checksum) Words(words []uint32) Checksum { return h.putWords(nil, words) }

// PutWords is Words that also encodes: it writes the little-endian bytes
// of every non-zero 64-byte block of words to dst, which must hold
// 4*len(words) zero bytes, so one pass over words both fills dst and
// hashes it.
func (h Checksum) PutWords(dst []byte, words []uint32) Checksum {
	return h.putWords(dst[:4*len(words)], words)
}

// putWords is Words when dst is nil and PutWords otherwise.
func (h Checksum) putWords(dst []byte, words []uint32) Checksum {
	le := binary.LittleEndian
	off := 0
	for ; len(words) >= 16; words = words[16:] {
		w := words[:16:16]
		x0, x1, x2, x3 := pair(w[0], w[1]), pair(w[2], w[3]), pair(w[4], w[5]), pair(w[6], w[7])
		x4, x5, x6, x7 := pair(w[8], w[9]), pair(w[10], w[11]), pair(w[12], w[13]), pair(w[14], w[15])
		if dst != nil && x0|x1|x2|x3|x4|x5|x6|x7 != 0 {
			for i, v := range w {
				le.PutUint32(dst[off+4*i:], v)
			}
		}
		h = h.block(x0, x1, x2, x3, x4, x5, x6, x7)
		off += 64
	}
	var tail [60]byte
	for i, v := range words {
		le.PutUint32(tail[4*i:], v)
	}
	if dst != nil {
		copy(dst[off:], tail[:4*len(words)])
	}
	return h.Bytes(tail[:4*len(words)])
}

// pair is the 8-byte little-endian word whose bytes are lo's, then hi's.
func pair(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

// block folds one 64-byte block given as its eight little-endian words.
func (h Checksum) block(x0, x1, x2, x3, x4, x5, x6, x7 uint64) Checksum {
	if x0|x1|x2|x3|x4|x5|x6|x7 == 0 {
		return h * fnvPrime64
	}
	return h.Word(x0).Word(x1).Word(x2).Word(x3).Word(x4).Word(x5).Word(x6).Word(x7)
}

// Zeros returns h extended by n zero bytes: h times p^n, with p^n
// computed by square-and-multiply, so a run of any length costs
// O(log n) multiplies.
func (h Checksum) Zeros(n int) Checksum {
	for p := Checksum(fnvPrime); n > 0; n >>= 1 {
		if n&1 != 0 {
			h *= p
		}
		p *= p
	}
	return h
}

// Word returns h extended by the eight little-endian bytes of x.
func (h Checksum) Word(x uint64) Checksum {
	if x == 0 {
		return h * fnvPrime8
	}
	for range 8 {
		h = (h ^ Checksum(x&0xff)) * fnvPrime
		x >>= 8
	}
	return h
}
