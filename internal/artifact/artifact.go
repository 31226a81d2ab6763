// Package artifact is a content-addressed store for expensive
// deterministic build products: compiled CTXBack plans, CFG/liveness
// analyses, checkpoint-site tables, prepared-workload metadata and whole
// evaluation matrices. The process store (Default) is memory-only
// unless a CLI installs a disk-backed one with -cache-dir; then it is
// shared by every process pointed at the same directory. A cold KM
// compile costs ~1.4s; loading the same plans from a warm disk store
// costs single-digit milliseconds.
//
// # Keying
//
// Every artifact is addressed by the SHA-256 of a canonical key blob
// built with NewKey: a kind string, the store schema version, and a
// sequence of (label, tag, value) fields covering every semantic input
// of the computation (program digests, feature flags, checkpoint
// interval, device config, workload params, ...). Labels and values are
// length-prefixed, so no two distinct field sequences share an encoding
// and key collisions reduce to SHA-256 collisions.
//
// # Wire format
//
// An entry on disk is a "CART" container: magic, format version, then two
// framed sections (the full key echo and the payload), each trailed by an
// FNV-1a 64 checksum. Loaders verify the magic, version, section framing,
// both checksums, the absence of trailing bytes, and — crucially — that
// the echoed key bytes equal the requesting key byte-for-byte. Any
// mismatch is a cache miss, never wrong bytes: the caller recomputes and
// atomically replaces the entry.
//
// # Invalidation
//
// There is no in-place invalidation. Artifacts are immutable once
// published; a semantic change to any producer must bump SchemaVersion,
// which changes every key and orphans the old entries (a cache dir is
// disposable — delete it to reclaim space). The `make cache-diff` gate
// byte-compares cold, warm and memory-only runs to catch a producer
// change that forgot the bump.
//
// # Cross-process protocol
//
// Publication is crash-safe: write to a unique temp file in the store
// dir, then rename(2) onto the final name — readers observe either the
// old entry, no entry, or the complete new entry. Duplicate work is
// suppressed at two levels: within a process, Do single-flights per key
// (concurrent callers block on one compute and share its result; in a
// memory-only store that is the whole cache, and nothing is encoded);
// across processes, the computing process holds a <key>.lock file
// created with O_CREATE|O_EXCL while it computes, and losers poll for
// the artifact to appear. Locks are advisory only — a stale lock
// (holder crashed) is taken over by mtime age, and a poll timeout falls
// back to computing locally, so a wedged peer can cost duplicate work
// but never liveness or correctness.
package artifact

import "errors"

// SchemaVersion is baked into every key blob. Bump it whenever any
// serialized form or any producer's semantics change: old entries then
// simply miss instead of deserializing into wrong results.
const SchemaVersion = 2

// The wire error vocabulary. Every decode failure of a Reader, and so
// of every container and payload written with Writer (CART entries,
// CSNP snapshots, isa program images), wraps exactly one of the first
// three, and a container's message names the container and section.
// To the store each one means "treat as a cache miss and recompute";
// they are distinguished so callers and tests can tell failure modes
// apart.
var (
	// ErrTruncated: the bytes end before the framing or a count says
	// they should.
	ErrTruncated = errors.New("truncated")
	// ErrCorrupt: bad magic, a wrong section id, a checksum mismatch,
	// trailing bytes or any other canonical-form violation.
	ErrCorrupt = errors.New("corrupt")
	// ErrStale: the container carries another format version.
	ErrStale = errors.New("stale format version")
	// ErrKeyMismatch: the entry's echoed key differs from the requesting
	// key — a hash collision or a renamed/moved file.
	ErrKeyMismatch = errors.New("artifact: key echo mismatch")
)
