package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Key identifies one artifact: a kind plus a canonical blob of labeled
// input fields. The disk address is the SHA-256 of both.
//
// Blob layout: u32 SchemaVersion, then per field
//
//	u16 len(label) | label | u8 tag | u32 len(value) | value
//
// Every component is length-prefixed, so distinct field sequences can
// never collide by re-splitting bytes across boundaries; the collision
// regression test pins this.
type Key struct {
	kind string
	// id is the key's canonical pre-image, u32 len(kind) | kind | blob:
	// its SHA-256 is the disk address, and a store's in-memory flight
	// map is keyed by id itself.
	id []byte
}

// Field type tags. Tags make a key self-describing enough that e.g. the
// integer 1 and the one-byte string "\x01" under the same label still
// differ.
const (
	tagBytes = 0x01
	tagInt   = 0x02
	tagStr   = 0x03
	tagBool  = 0x04
	tagF64   = 0x05
)

// NewKey starts a key of the given kind. The store schema version is
// folded in automatically so a format bump misses every old entry.
func NewKey(kind string) *Key {
	k := rawKey(kind, 128)
	k.id = binary.LittleEndian.AppendUint32(k.id, SchemaVersion)
	return k
}

// RawKey reconstructs a key from its kind and blob (as decoded from an
// entry's key-echo section). Used by round-trip tests and fuzzing.
func RawKey(kind string, blob []byte) Key {
	k := rawKey(kind, len(blob))
	k.id = append(k.id, blob...)
	return *k
}

// rawKey is a key of kind with an empty blob and room for n blob bytes.
func rawKey(kind string, n int) *Key {
	id := make([]byte, 0, 4+len(kind)+n)
	id = binary.LittleEndian.AppendUint32(id, uint32(len(kind)))
	return &Key{kind: kind, id: append(id, kind...)}
}

func (k *Key) field(label string, tag uint8, value []byte) *Key {
	k.id = binary.LittleEndian.AppendUint16(k.id, uint16(len(label)))
	k.id = append(k.id, label...)
	k.id = append(k.id, tag)
	k.id = binary.LittleEndian.AppendUint32(k.id, uint32(len(value)))
	k.id = append(k.id, value...)
	return k
}

// Bytes adds a labeled byte-slice field (e.g. a program digest).
func (k *Key) Bytes(label string, v []byte) *Key { return k.field(label, tagBytes, v) }

// Str adds a labeled string field.
func (k *Key) Str(label, v string) *Key { return k.field(label, tagStr, []byte(v)) }

// Int adds a labeled integer field.
func (k *Key) Int(label string, v int) *Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	return k.field(label, tagInt, b[:])
}

// I64 adds a labeled 64-bit integer field.
func (k *Key) I64(label string, v int64) *Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return k.field(label, tagInt, b[:])
}

// Bool adds a labeled boolean field.
func (k *Key) Bool(label string, v bool) *Key {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	return k.field(label, tagBool, b)
}

// F64 adds a labeled float field by IEEE-754 bit pattern.
func (k *Key) F64(label string, v float64) *Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return k.field(label, tagF64, b[:])
}

// Kind returns the key's kind string.
func (k *Key) Kind() string { return k.kind }

// Blob returns the canonical field blob (read-only).
func (k *Key) Blob() []byte { return k.id[4+len(k.kind):] }

// Hash returns the hex SHA-256 content address of the key.
func (k *Key) Hash() string {
	sum := sha256.Sum256(k.id)
	return hex.EncodeToString(sum[:])
}
