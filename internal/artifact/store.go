package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Container framing constants.
const (
	magic         = "CART"
	formatVersion = 1

	secKey     = 1
	secPayload = 2
)

// EncodeEntry frames a payload for disk: magic, format version, the key
// echo section and the payload section.
func EncodeEntry(key *Key, payload []byte) []byte {
	blob := key.Blob()
	w := NewWriter()
	w.Grow(len(magic) + 2 + 2*(2+4+8) + 2*4 + len(key.kind) + len(blob) + len(payload))
	w.Header(magic, formatVersion)
	w.Section(secKey, func() {
		w.Str(key.kind)
		w.Bytes(blob)
	})
	w.Section(secPayload, func() { copy(w.Extend(len(payload)), payload) })
	return w.Data()
}

// DecodeEntry validates a container and returns the echoed key and the
// payload. Every violation maps to one of the sentinel errors; callers
// treat any error as a miss.
func DecodeEntry(data []byte) (Key, []byte, error) {
	r := NewReader(data)
	r.Header(magic, formatVersion)
	kr := r.Section(secKey, "key")
	kind, blob := kr.Str(), kr.Bytes()
	pr := r.Section(secPayload, "payload")
	payload := pr.Rest()
	for _, sr := range []*Reader{kr, pr, r} {
		if err := sr.Close(); err != nil {
			return Key{}, nil, err
		}
	}
	return RawKey(kind, blob), payload, nil
}

// Store memoizes artifacts by content key. Its single-flight map is the
// in-process cache; a store opened on a directory also persists every
// entry there and shares it across processes. The zero value is
// unusable; use NewMemory or Open.
type Store struct {
	dir string // "" for a memory-only store

	// Advisory-lock tuning, overridable in tests. LockPoll is the wait
	// between checks while another process holds a key's lock; LockStale
	// is the age past which a lock is presumed abandoned and taken over;
	// LockTimeout bounds the total wait before computing locally anyway.
	LockPoll    time.Duration
	LockStale   time.Duration
	LockTimeout time.Duration

	mu      sync.Mutex
	flights map[string]*flight // Key.id -> entry

	computes atomic.Int64
	diskHits atomic.Int64
	memHits  atomic.Int64
}

// flight is one in-process single-flight computation; it doubles as the
// in-memory content-keyed cache entry afterwards.
type flight struct {
	once sync.Once
	val  any
	err  error
}

// Codec is an artifact kind's disk form. Only a store with a directory
// calls it: Encode on the way to disk after a compute, Decode on a
// validated payload read back. Decode errors are misses.
type Codec struct {
	Encode func(value any) []byte
	Decode func(payload []byte) (any, error)
}

// NewMemory returns a memory-only store: its flight map is the whole
// cache, and it never encodes, decodes or touches a disk.
func NewMemory() *Store { return &Store{flights: make(map[string]*flight)} }

// Open creates/opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := NewMemory()
	s.dir = dir
	s.LockPoll = 5 * time.Millisecond
	s.LockStale = 10 * time.Second
	s.LockTimeout = 60 * time.Second
	return s, nil
}

// Dir returns the store's root directory, or "" for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// Stats reports lifetime counters: computes actually run, disk loads,
// and in-memory single-flight hits.
func (s *Store) Stats() (computes, diskHits, memHits int64) {
	return s.computes.Load(), s.diskHits.Load(), s.memHits.Load()
}

func (s *Store) path(hash string) string { return filepath.Join(s.dir, hash+".art") }

// Get loads and validates the entry for key, returning its payload.
// Any validation failure — truncation, corruption, version skew, key
// mismatch — reports a miss.
func (s *Store) Get(key *Key) ([]byte, bool) {
	payload, err := s.load(key)
	return payload, err == nil
}

func (s *Store) load(key *Key) ([]byte, error) {
	data, err := os.ReadFile(s.path(key.Hash()))
	if err != nil {
		return nil, err
	}
	echo, payload, err := DecodeEntry(data)
	if err != nil {
		return nil, err
	}
	if string(echo.id) != string(key.id) {
		return nil, fmt.Errorf("%w: kind %q", ErrKeyMismatch, echo.kind)
	}
	return payload, nil
}

// Put frames and atomically publishes a payload under key: temp file in
// the store dir, then rename. Concurrent publishers of the same key are
// harmless — the content is deterministic, so last-writer-wins installs
// identical bytes.
func (s *Store) Put(key *Key, payload []byte) error {
	hash := key.Hash()
	f, err := os.CreateTemp(s.dir, hash+".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(EncodeEntry(key, payload))
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, s.path(hash))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: %w", werr)
	}
	return nil
}

// Do returns the value for key, computing it at most once per process
// and, in a store with a directory, barring crashes and lock timeouts,
// at most once fleet-wide.
//
// compute produces the value. A store with a directory first tries to
// decode a disk entry, and publishes c.Encode of a fresh value; a
// memory-only store never calls c. The returned value is shared by
// every in-process caller of the same key, so it must be immutable
// (which all artifact values are). compute must not call Do on its own
// key: the nested call would wait on itself.
func (s *Store) Do(key *Key, c Codec, compute func() (any, error)) (any, error) {
	s.mu.Lock()
	f, hit := s.flights[string(key.id)]
	if !hit {
		f = &flight{}
		s.flights[string(key.id)] = f
	}
	s.mu.Unlock()
	if hit {
		s.memHits.Add(1)
	}
	f.once.Do(func() { f.val, f.err = s.doCold(key, c, compute) })
	if f.err != nil {
		// Do not memoize failures: a transient error (disk full during
		// publish never reaches here, but compute errors may be
		// environmental) should not wedge the key for the process.
		s.mu.Lock()
		if s.flights[string(key.id)] == f {
			delete(s.flights, string(key.id))
		}
		s.mu.Unlock()
	}
	return f.val, f.err
}

func (s *Store) doCold(key *Key, c Codec, compute func() (any, error)) (any, error) {
	if s.dir != "" {
		if v, ok := s.loadValue(key, c); ok {
			return v, nil
		}
		release, _ := s.acquire(key.Hash())
		defer release()
		// Re-check the disk whether or not we hold the lock: a peer may
		// have published while we were waiting (or between our first load
		// and the lock acquisition).
		if v, ok := s.loadValue(key, c); ok {
			return v, nil
		}
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	s.computes.Add(1)
	if s.dir != "" {
		// Publication failure is not a compute failure: the value is
		// good, the disk just didn't take it.
		_ = s.Put(key, c.Encode(v))
	}
	return v, nil
}

// loadValue decodes key's disk entry. A decodable container with an
// undecodable payload is a miss; the caller recomputes and overwrites.
func (s *Store) loadValue(key *Key, c Codec) (any, bool) {
	payload, err := s.load(key)
	if err != nil {
		return nil, false
	}
	v, err := c.Decode(payload)
	if err != nil {
		return nil, false
	}
	s.diskHits.Add(1)
	return v, true
}

// acquire takes the advisory per-key lock, or waits for the holder.
// It returns acquired=false when the artifact appeared while waiting,
// when the wait timed out, or when the dir refuses lock files — in all
// three cases the caller re-checks the disk and then computes locally.
func (s *Store) acquire(hash string) (release func(), acquired bool) {
	lock := filepath.Join(s.dir, hash+".lock")
	none := func() {}
	deadline := time.Now().Add(s.LockTimeout)
	for {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(lock) }, true
		}
		if !os.IsExist(err) {
			return none, false
		}
		if _, err := os.Stat(s.path(hash)); err == nil {
			return none, false // holder published; caller reloads
		}
		if fi, err := os.Stat(lock); err == nil && time.Since(fi.ModTime()) > s.LockStale {
			// Holder presumed dead; steal the lock. The remove may race
			// with another staleness observer — both fall through to the
			// O_EXCL create, which arbitrates.
			os.Remove(lock)
			continue
		}
		if time.Now().After(deadline) {
			return none, false
		}
		time.Sleep(s.LockPoll)
	}
}

// defaultStore is the process-wide store: memory-only unless a CLI
// installs a disk-backed one with -cache-dir.
var defaultStore atomic.Pointer[Store]

func init() { defaultStore.Store(NewMemory()) }

// SetDefault installs the process-wide store and returns the previous
// one so tests can restore it. s must not be nil.
func SetDefault(s *Store) *Store {
	if s == nil {
		panic("artifact: SetDefault(nil)")
	}
	return defaultStore.Swap(s)
}

// Default returns the process-wide store; it is never nil.
func Default() *Store { return defaultStore.Load() }

// Memo is the typed entry point to the process store: it resolves key
// through Default().Do, with enc and dec as the kind's disk form (a
// memory-only store never calls them). compute must not look up its own
// key.
func Memo[T any](key *Key, compute func() (T, error),
	enc func(T) []byte, dec func([]byte) (T, error)) (T, error) {
	v, err := Default().Do(key, Codec{
		Encode: func(v any) []byte { return enc(v.(T)) },
		Decode: func(p []byte) (any, error) { return dec(p) },
	}, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}
