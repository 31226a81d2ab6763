package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWireRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(7)
	w.U16(300)
	w.U32(1 << 20)
	w.U64(1 << 40)
	w.I64(-9)
	w.Int(-1234567)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.5)
	w.Bytes([]byte{1, 2, 3})
	w.Str("hello")
	r := NewReader(w.Data())
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U16(); got != 300 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U32(); got != 1<<20 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -9 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -1234567 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %g", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReaderRejectsNonCanonical(t *testing.T) {
	// A 2 is not a canonical bool.
	r := NewReader([]byte{2})
	r.Bool()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-canonical bool: %v", err)
	}
	// Trailing bytes violate exact consumption.
	r = NewReader([]byte{0, 0})
	r.Bool()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Truncated read latches.
	r = NewReader([]byte{1, 2})
	r.U32()
	if err := r.Close(); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
}

// TestKeyFieldCoverage is the collision regression: every field kind,
// every label, and every value perturbation must move the hash.
func TestKeyFieldCoverage(t *testing.T) {
	base := func() *Key {
		return NewKey("test/kind").
			Bytes("b", []byte{1, 2}).
			Str("s", "x").
			Int("i", 5).
			I64("j", -7).
			Bool("f", false).
			F64("g", 1.25)
	}
	seen := map[string]string{base().Hash(): "base"}
	add := func(name string, k *Key) {
		t.Helper()
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}
	add("kind", NewKey("test/kind2").
		Bytes("b", []byte{1, 2}).Str("s", "x").Int("i", 5).
		I64("j", -7).Bool("f", false).F64("g", 1.25))
	add("bytes-value", NewKey("test/kind").
		Bytes("b", []byte{1, 3}).Str("s", "x").Int("i", 5).
		I64("j", -7).Bool("f", false).F64("g", 1.25))
	add("str-value", NewKey("test/kind").
		Bytes("b", []byte{1, 2}).Str("s", "y").Int("i", 5).
		I64("j", -7).Bool("f", false).F64("g", 1.25))
	add("int-value", NewKey("test/kind").
		Bytes("b", []byte{1, 2}).Str("s", "x").Int("i", 6).
		I64("j", -7).Bool("f", false).F64("g", 1.25))
	add("i64-value", NewKey("test/kind").
		Bytes("b", []byte{1, 2}).Str("s", "x").Int("i", 5).
		I64("j", 7).Bool("f", false).F64("g", 1.25))
	add("bool-value", NewKey("test/kind").
		Bytes("b", []byte{1, 2}).Str("s", "x").Int("i", 5).
		I64("j", -7).Bool("f", true).F64("g", 1.25))
	add("f64-value", NewKey("test/kind").
		Bytes("b", []byte{1, 2}).Str("s", "x").Int("i", 5).
		I64("j", -7).Bool("f", false).F64("g", 1.5))
	add("label", NewKey("test/kind").
		Bytes("c", []byte{1, 2}).Str("s", "x").Int("i", 5).
		I64("j", -7).Bool("f", false).F64("g", 1.25))
	add("dropped-field", NewKey("test/kind").
		Bytes("b", []byte{1, 2}).Str("s", "x").Int("i", 5).
		I64("j", -7).Bool("f", false))
}

// TestKeyBoundaryCollisions pins the length-prefixed layout: moving
// bytes between a label and its value, splitting one field into two, or
// moving bytes between kind and blob must all produce distinct hashes.
func TestKeyBoundaryCollisions(t *testing.T) {
	pairs := [][2]*Key{
		// "ab" + "c" vs "a" + "bc": label/value boundary shift.
		{NewKey("k").Bytes("ab", []byte("c")), NewKey("k").Bytes("a", []byte("bc"))},
		// One two-byte value vs two one-byte fields.
		{NewKey("k").Bytes("x", []byte("ab")),
			NewKey("k").Bytes("x", []byte("a")).Bytes("x", []byte("b"))},
		// Same concatenated bytes across the kind/blob boundary.
		{NewKey("ka").Str("f", "b"), NewKey("k").Str("f", "ab")},
		// Same 8 bytes under different tags.
		{NewKey("k").Int("v", 1), NewKey("k").I64("v", 1).Bool("pad", false)},
	}
	for i, p := range pairs {
		if p[0].Hash() == p[1].Hash() {
			t.Errorf("pair %d: boundary shift collides (%q/% x vs %q/% x)",
				i, p[0].Kind(), p[0].Blob(), p[1].Kind(), p[1].Blob())
		}
	}
	// The same field sequence, however, is deterministic.
	if NewKey("k").Int("v", 1).Hash() != NewKey("k").Int("v", 1).Hash() {
		t.Error("identical keys hash differently")
	}
}

func TestStorePutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("test/blob").Int("n", 42)
	payload := []byte("the artifact payload")
	if _, ok := st.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// A different key misses even though the file for the first exists.
	if _, ok := st.Get(NewKey("test/blob").Int("n", 43)); ok {
		t.Fatal("hit for a different key")
	}
}

func TestEncodeDecodeEntryIdentity(t *testing.T) {
	key := NewKey("test/identity").Str("who", "me").Bytes("raw", []byte{0, 255, 7})
	payload := []byte("payload bytes")
	enc := EncodeEntry(key, payload)
	echo, got, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if echo.Kind() != key.Kind() || !bytes.Equal(echo.Blob(), key.Blob()) {
		t.Fatal("key echo mismatch")
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
	re := EncodeEntry(&echo, got)
	if !bytes.Equal(re, enc) {
		t.Fatal("encode∘decode∘encode is not byte-identical")
	}
}

// TestEntryPinned pins one CART container byte for byte; the digest is
// SHA-256, not the section checksum the container carries.
func TestEntryPinned(t *testing.T) {
	key := NewKey("test/pinned").
		Bytes("b", []byte{0, 1, 254, 255}).
		Str("s", "flashback").
		Int("i", -42).
		I64("j", 1<<40).
		Bool("f", true).
		F64("g", 0.625)
	enc := EncodeEntry(key, []byte("a pinned payload\x00\xff"))
	const (
		wantLen    = 161
		wantSHA256 = "bdb8e1bb825be1e8aae637ac544ed00b297cf30fcbc00f8a5816f189e58fe07e"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != wantLen || got != wantSHA256 {
		t.Fatalf("container is %d bytes, sha256 %s; want %d bytes, sha256 %s", len(enc), got, wantLen, wantSHA256)
	}
}

// strCodec stores a string value as its bytes.
var strCodec = Codec{
	Encode: func(v any) []byte { return []byte(v.(string)) },
	Decode: func(p []byte) (any, error) { return string(p), nil },
}

// TestMemoryStoreNeverEncodes: a memory-only store memoizes the computed
// value itself, so cold and warm lookups, and a failed compute, never
// call the codec; a store with a directory encodes each fresh value
// once and decodes it in the next process.
func TestMemoryStoreNeverEncodes(t *testing.T) {
	var encodes, decodes int
	counting := Codec{
		Encode: func(v any) []byte { encodes++; return strCodec.Encode(v) },
		Decode: func(p []byte) (any, error) { decodes++; return strCodec.Decode(p) },
	}
	ok := func() (any, error) { return "v", nil }
	fail := func() (any, error) { return nil, errors.New("boom") }

	mem := NewMemory()
	if mem.Dir() != "" {
		t.Fatalf("memory-only store has dir %q", mem.Dir())
	}
	mem.Do(NewKey("test/lazy").Int("n", 1), counting, fail)
	for i := 0; i < 3; i++ {
		for n := 1; n <= 2; n++ {
			if v, err := mem.Do(NewKey("test/lazy").Int("n", n), counting, ok); err != nil || v != "v" {
				t.Fatalf("memory Do = %v, %v", v, err)
			}
		}
	}
	if encodes != 0 || decodes != 0 {
		t.Fatalf("memory-only store: %d encodes, %d decodes, want 0", encodes, decodes)
	}
	if c, disk, hits := mem.Stats(); c != 2 || disk != 0 || hits != 4 {
		t.Fatalf("memory Stats = %d computes, %d diskHits, %d memHits", c, disk, hits)
	}

	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		st, _ := Open(dir)
		for j := 0; j < 2; j++ {
			if v, err := st.Do(NewKey("test/lazy"), counting, ok); err != nil || v != "v" {
				t.Fatalf("disk Do = %v, %v", v, err)
			}
		}
	}
	if encodes != 1 || decodes != 1 {
		t.Fatalf("disk store: %d encodes, %d decodes, want 1 and 1", encodes, decodes)
	}
	if Default() == nil || Default().Dir() != "" {
		t.Fatal("the process default store must be a memory-only store")
	}
}

// TestDoSingleFlight races 8 workers on one cold key: exactly one
// compute, everyone sees the same value, the rest are memory hits.
func TestDoSingleFlight(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("test/flight").Int("n", 1)
	var computes int
	var mu sync.Mutex
	do := func() (any, error) {
		return st.Do(key, strCodec, func() (any, error) {
			mu.Lock()
			computes++
			mu.Unlock()
			time.Sleep(20 * time.Millisecond) // widen the race window
			return "value", nil
		})
	}
	const workers = 8
	vals := make([]any, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = do()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if vals[i] != "value" {
			t.Fatalf("worker %d saw %v", i, vals[i])
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	c, _, mem := st.Stats()
	if c != 1 {
		t.Fatalf("Stats computes = %d, want 1", c)
	}
	if mem != workers-1 {
		t.Fatalf("Stats memHits = %d, want %d", mem, workers-1)
	}
}

// TestDoDiskHit reopens a populated directory with a fresh Store — a
// simulated new process — and checks the value is decoded, not computed.
func TestDoDiskHit(t *testing.T) {
	dir := t.TempDir()
	key := NewKey("test/disk").Str("k", "v")

	st1, _ := Open(dir)
	v, err := st1.Do(key, strCodec, func() (any, error) { return "first", nil })
	if err != nil || v != "first" {
		t.Fatalf("cold Do = %v, %v", v, err)
	}

	st2, _ := Open(dir)
	v, err = st2.Do(key, strCodec, func() (any, error) {
		return nil, errors.New("must not recompute")
	})
	if err != nil || v != "first" {
		t.Fatalf("warm Do = %v, %v", v, err)
	}
	if c, disk, _ := st2.Stats(); c != 0 || disk != 1 {
		t.Fatalf("warm Stats = %d computes, %d diskHits", c, disk)
	}
}

// TestDoErrorNotMemoized: a failed compute must not wedge the key.
func TestDoErrorNotMemoized(t *testing.T) {
	st, _ := Open(t.TempDir())
	key := NewKey("test/err")
	boom := errors.New("boom")
	calls := 0
	compute := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err := st.Do(key, strCodec, compute); !errors.Is(err, boom) {
		t.Fatalf("first Do: %v", err)
	}
	v, err := st.Do(key, strCodec, compute)
	if err != nil || v != "ok" {
		t.Fatalf("retry Do = %v, %v", v, err)
	}
}

// TestTamper corrupts the on-disk entry every way the loader validates
// and checks each one degrades to a clean recompute — never wrong bytes.
func TestTamper(t *testing.T) {
	key := NewKey("test/tamper").Int("n", 9)
	good := []byte("the one true payload")
	tampers := []struct {
		name   string
		want   error // the class the loader reports
		mutate func(t *testing.T, path string, data []byte)
	}{
		{"flip-payload-byte", ErrCorrupt, func(t *testing.T, path string, data []byte) {
			data[len(data)-9] ^= 0xff // last payload body byte (before the 8-byte trailer)
			writeFile(t, path, data)
		}},
		{"truncate", ErrTruncated, func(t *testing.T, path string, data []byte) {
			writeFile(t, path, data[:len(data)-5])
		}},
		{"empty", ErrTruncated, func(t *testing.T, path string, data []byte) {
			writeFile(t, path, nil)
		}},
		{"bad-magic", ErrCorrupt, func(t *testing.T, path string, data []byte) {
			data[0] ^= 0xff
			writeFile(t, path, data)
		}},
		{"stale-version", ErrStale, func(t *testing.T, path string, data []byte) {
			data[4], data[5] = 0xfe, 0xff
			writeFile(t, path, data)
		}},
		{"zero-checksum", ErrCorrupt, func(t *testing.T, path string, data []byte) {
			for i := len(data) - 8; i < len(data); i++ {
				data[i] = 0
			}
			writeFile(t, path, data)
		}},
		{"trailing-bytes", ErrCorrupt, func(t *testing.T, path string, data []byte) {
			writeFile(t, path, append(data, 0xaa))
		}},
		{"wrong-key-echo", ErrKeyMismatch, func(t *testing.T, path string, data []byte) {
			// A perfectly valid entry... for some other key, squatting at
			// this key's address.
			other := NewKey("test/tamper").Int("n", 10)
			writeFile(t, path, EncodeEntry(other, []byte("impostor payload")))
		}},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := Open(dir)
			if err := st.Put(key, good); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key.Hash()+".art")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, path, data)

			if _, ok := st.Get(key); ok {
				t.Fatal("tampered entry served as a hit")
			}
			if _, err := st.load(key); !errors.Is(err, tc.want) {
				t.Fatalf("load error %v, want %v", err, tc.want)
			}
			// Do must fall back to compute and repair the entry.
			recomputed := false
			v, err := st.Do(key, strCodec, func() (any, error) {
				recomputed = true
				return string(good), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v != string(good) {
				t.Fatalf("Do returned %q after tamper", v)
			}
			if !recomputed {
				t.Fatal("tampered entry was not recomputed")
			}
			if got, ok := st.Get(key); !ok || !bytes.Equal(got, good) {
				t.Fatalf("entry not repaired: %q, %v", got, ok)
			}
		})
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeErrorIsMiss: a valid container whose payload the consumer
// rejects is recomputed and overwritten.
func TestDecodeErrorIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := NewKey("test/decode-miss")
	st1, _ := Open(dir)
	if err := st1.Put(key, []byte("old-schema payload")); err != nil {
		t.Fatal(err)
	}
	st2, _ := Open(dir)
	v, err := st2.Do(key, Codec{
		Encode: func(any) []byte { return []byte("new") },
		Decode: func(p []byte) (any, error) {
			if string(p) != "new" {
				return nil, fmt.Errorf("unexpected payload %q", p)
			}
			return "decoded", nil
		},
	}, func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if got, _ := st2.Get(key); string(got) != "new" {
		t.Fatalf("entry not overwritten: %q", got)
	}
}

// TestStaleLockTakeover: an abandoned lock (crashed holder) must not
// block the key forever.
func TestStaleLockTakeover(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	st.LockPoll = time.Millisecond
	st.LockStale = 50 * time.Millisecond
	st.LockTimeout = 5 * time.Second
	key := NewKey("test/stale")
	lock := filepath.Join(dir, key.Hash()+".lock")
	writeFile(t, lock, nil)
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, err := st.Do(key, strCodec, func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stale-lock takeover took %v", d)
	}
}

// TestCrossProcessSingleFlight re-execs the test binary twice against
// one cold directory: the advisory lock must collapse the two racing
// compiles into one, and both processes must return identical values.
func TestCrossProcessSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	dir := t.TempDir()
	run := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestCrossProcessHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "ARTIFACT_RACE_DIR="+dir)
		return cmd
	}
	c1, c2 := run(), run()
	var out1, out2 bytes.Buffer
	c1.Stdout, c1.Stderr = &out1, &out1
	c2.Stdout, c2.Stderr = &out2, &out2
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	err1, err2 := c1.Wait(), c2.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("children failed: %v / %v\n--- child 1\n%s\n--- child 2\n%s",
			err1, err2, out1.String(), out2.String())
	}
	v1 := valueLine(t, out1.String())
	v2 := valueLine(t, out2.String())
	if v1 != v2 {
		t.Fatalf("children disagree: %q vs %q", v1, v2)
	}
	log, err := os.ReadFile(filepath.Join(dir, "computes.log"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(log), "C"); n != 1 {
		t.Fatalf("%d computes across two processes, want 1", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.art"))
	if len(files) != 1 {
		t.Fatalf("%d artifacts, want 1", len(files))
	}
}

func valueLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "VALUE ") {
			return line
		}
	}
	t.Fatalf("no VALUE line in child output:\n%s", out)
	return ""
}

// TestCrossProcessHelper is the child body for the re-exec test; it
// skips unless launched by TestCrossProcessSingleFlight.
func TestCrossProcessHelper(t *testing.T) {
	dir := os.Getenv("ARTIFACT_RACE_DIR")
	if dir == "" {
		t.Skip("helper for TestCrossProcessSingleFlight")
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("test/cross-process").Int("n", 1)
	v, err := st.Do(key, strCodec, func() (any, error) {
		// Log the compute append-only so the parent can count them
		// fleet-wide, and linger so the sibling really races the lock.
		f, err := os.OpenFile(filepath.Join(dir, "computes.log"),
			os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.WriteString("C\n"); err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		time.Sleep(300 * time.Millisecond)
		return "the-value", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("VALUE %v\n", v)
}
