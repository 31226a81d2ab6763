package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

const maxCycles = 500_000_000

func mustDevice(t testing.TB, cfg sim.Config) *sim.Device {
	t.Helper()
	d, err := sim.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustWorkload(t testing.TB, abbrev string) *kernels.Workload {
	t.Helper()
	wl, err := kernels.ByAbbrev(abbrev, kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// goldenCycles runs wl undisturbed on a cfg device and returns its
// completion cycle and final memory.
func goldenCycles(t testing.TB, cfg sim.Config, wl *kernels.Workload) (int64, *sim.Memory) {
	t.Helper()
	d := mustDevice(t, cfg)
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	return d.Now(), d.Mem
}

// parked drives wl under kind to a fully-saved (parked) episode on
// SM 0 of a sim.TestConfig device, signalled halfway through the golden
// run.
func parked(t testing.TB, kind preempt.Kind, wl *kernels.Workload) (*sim.Device, *sim.Episode, preempt.Technique) {
	t.Helper()
	return parkedOn(t, sim.TestConfig(), kind, wl)
}

// parkedOn is parked on a cfg device.
func parkedOn(t testing.TB, cfg sim.Config, kind preempt.Kind, wl *kernels.Workload) (*sim.Device, *sim.Episode, preempt.Technique) {
	t.Helper()
	cycles, _ := goldenCycles(t, cfg, wl)
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDevice(t, cfg)
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.RunToCycle(cycles/2, maxCycles); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		t.Fatalf("%v/%s: preempt at half-run should find victims: %v", kind, wl.Abbrev, err)
	}
	if err := d.RunUntil(ep.Saved, maxCycles); err != nil {
		t.Fatal(err)
	}
	return d, ep, tech
}

// finishRestored resumes the snapshot's episode on a restored device
// and drains it.
func finishRestored(t testing.TB, res *Restored) {
	t.Helper()
	if len(res.Index.Episodes) != 1 {
		t.Fatalf("restored %d episodes, want 1", len(res.Index.Episodes))
	}
	if err := res.Device.Resume(res.Index.Episodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := res.Device.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatEncodeByteStable is the satellite-1 guard: encoding the
// same state twice, and re-encoding a decoded state, must be
// byte-identical — any map-iteration order leaking into the stream
// breaks this immediately (SavedContext slot maps are the hot spot, so
// the parked episode below carries full context buffers).
func TestRepeatEncodeByteStable(t *testing.T) {
	for _, abbrev := range []string{"VA", "MS", "DOT"} {
		d, _, _ := parked(t, preempt.Baseline, mustWorkload(t, abbrev))
		snap, enc := Capture(d, 7)
		for i := 0; i < 3; i++ {
			if again := Encode(snap); !bytes.Equal(enc, again) {
				t.Fatalf("%s: encode %d differs from first encode", abbrev, i+2)
			}
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", abbrev, err)
		}
		if dec.Epoch != 7 {
			t.Fatalf("%s: epoch %d, want 7", abbrev, dec.Epoch)
		}
		if again := Encode(dec); !bytes.Equal(enc, again) {
			t.Fatalf("%s: encode∘decode∘encode differs", abbrev)
		}
		if err := dec.State.CheckInvariants(); err != nil {
			t.Fatalf("%s: decoded state: %v", abbrev, err)
		}
	}
}

// TestEncodePinned pins one image byte for byte: VA parked under CTXBack
// on the test device. The digest is SHA-256, not the section checksum
// the image carries, so a change to that checksum cannot hide here.
func TestEncodePinned(t *testing.T) {
	d, _, _ := parked(t, preempt.CTXBack, mustWorkload(t, "VA"))
	_, enc := Capture(d, 1)
	const (
		wantLen    = 94341
		wantSHA256 = "4821f47af45569f864b77aedeac707f4c0fdb8080d8a120f4f308071ac5fb0c9"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != wantLen || got != wantSHA256 {
		t.Fatalf("image is %d bytes, sha256 %s; want %d bytes, sha256 %s", len(enc), got, wantLen, wantSHA256)
	}
}

// TestFramingErrorClasses runs one table of framing faults over both
// containers that share artifact's framing, a CART entry and a CSNP
// image. Each fault must give its error class, named by the container
// and, for a fault inside a section, by the section. A flip in the CSNP
// memory section passes DecodeSpeculative, and its deferred validate
// reports it.
func TestFramingErrorClasses(t *testing.T) {
	d, _, _ := parked(t, preempt.Baseline, mustWorkload(t, "VA"))
	_, image := Capture(d, 1)
	key := artifact.NewKey("test/framing").Int("n", 1)
	type container struct {
		magic       string
		data        []byte
		firstAt     int // offset of the first section
		first, last string
		decode      func([]byte) error
	}
	containers := []container{
		{"CART", artifact.EncodeEntry(key, []byte("payload")), 6, "key", "payload",
			func(b []byte) error { _, _, err := artifact.DecodeEntry(b); return err }},
		{"CSNP", image, 6 + 8, "meta", "memory",
			func(b []byte) error { _, err := Decode(b); return err }},
	}
	faults := []struct {
		name    string
		want    error
		section func(c container) string // "" for a header or trailer fault
		mutate  func(c container, b []byte) []byte
	}{
		{"truncated-header", artifact.ErrTruncated, nil,
			func(_ container, b []byte) []byte { return b[:5] }},
		{"truncated-section", artifact.ErrTruncated, func(c container) string { return c.last },
			func(_ container, b []byte) []byte { return b[:len(b)-1] }},
		{"bad-magic", artifact.ErrCorrupt, nil,
			func(_ container, b []byte) []byte { b[0] ^= 0xff; return b }},
		{"wrong-section-id", artifact.ErrCorrupt, func(c container) string { return c.first },
			func(c container, b []byte) []byte { b[c.firstAt] ^= 0x40; return b }},
		{"flipped-checksum", artifact.ErrCorrupt, func(c container) string { return c.last },
			func(_ container, b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"trailing-bytes", artifact.ErrCorrupt, nil,
			func(_ container, b []byte) []byte { return append(b, 0) }},
		{"format-version", artifact.ErrStale, nil,
			func(_ container, b []byte) []byte { b[4] ^= 0x01; return b }},
	}
	for _, c := range containers {
		if err := c.decode(c.data); err != nil {
			t.Fatalf("%s: intact container: %v", c.magic, err)
		}
		for _, f := range faults {
			err := c.decode(f.mutate(c, bytes.Clone(c.data)))
			if !errors.Is(err, f.want) {
				t.Errorf("%s %s: err = %v, want %v", c.magic, f.name, err, f.want)
				continue
			}
			where := c.magic
			if f.section != nil {
				where += " section " + f.section(c)
			}
			if !strings.HasPrefix(err.Error(), where+": ") {
				t.Errorf("%s %s: %q does not name %q", c.magic, f.name, err, where)
			}
		}
	}

	v1 := bytes.Clone(image)
	binary.LittleEndian.PutUint16(v1[len(magic):], 1)
	if _, err := Decode(v1); !errors.Is(err, artifact.ErrStale) {
		t.Errorf("CSNP version 1: err = %v, want ErrStale", err)
	}

	flip := bytes.Clone(image)
	flip[len(flip)-9] ^= 0x10 // the memory payload's last byte
	_, validate, err := DecodeSpeculative(flip)
	if err != nil {
		t.Fatalf("speculative decode of a memory flip: %v", err)
	}
	if err := validate(); !errors.Is(err, artifact.ErrCorrupt) || !strings.Contains(err.Error(), "CSNP section memory") {
		t.Fatalf("deferred validate of a memory flip: %v", err)
	}
}

// TestMemoryPagesRoundTrip: a page with storage of its own that holds
// only zeros encodes exactly like a page without storage, and Decode
// gives storage to exactly the pages that hold a non-zero word.
func TestMemoryPagesRoundTrip(t *testing.T) {
	d, _, _ := parked(t, preempt.CTXBack, mustWorkload(t, "VA"))
	_, enc := Capture(d, 1)
	last := d.Mem.Words() - 1
	d.Mem.Store(last, 1)
	d.Mem.Store(last, 0) // the last page keeps its storage, all zero
	if _, again := Capture(d, 1); !bytes.Equal(enc, again) {
		t.Fatal("an all-zero page with storage encodes differently from one without")
	}
	snap, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	mem := snap.State.Mem
	if i := mem.Diff(d.Mem); i >= 0 {
		t.Fatalf("decoded mem[%d] = %#x, device %#x", i, mem.Load(i), d.Mem.Load(i))
	}
	owned := 0
	mem.Runs(0, mem.Words(), func(off int, run []uint32, own bool) {
		if nonZero := slices.ContainsFunc(run, func(v uint32) bool { return v != 0 }); own != nonZero {
			t.Errorf("decoded page at word %d: storage %v, non-zero words %v", off, own, nonZero)
		}
		if own {
			owned++
		}
	})
	if owned == 0 || owned == mem.Words()/sim.PageWords {
		t.Fatalf("decoded %d of %d pages with storage; the test wants a mix", owned, mem.Words()/sim.PageWords)
	}
}

// withMemSection returns image with its memory section replaced by one
// whose payload is the given words, framed and checksummed as Encode
// frames it.
func withMemSection(t testing.TB, image []byte, payload ...uint32) []byte {
	t.Helper()
	at, _ := memPayload(t, image)
	w := artifact.NewWriter()
	copy(w.Extend(at-6), image[:at-6])
	w.Section(secMem, func() {
		for _, v := range payload {
			w.U32(v)
		}
	})
	return w.Data()
}

// bareImage encodes a state with no launches, SMs or episodes on a
// TestConfig device of the given memory size; its memory section is
// empty but for the word count.
func bareImage(words int) []byte {
	cfg := sim.TestConfig()
	cfg.GlobalMemBytes = 4 * words
	return Encode(&Snapshot{Epoch: 1, State: &sim.DeviceState{Cfg: cfg, Mem: sim.NewMemory(0)}})
}

// TestDecodeHostileCountAllocatesLittle: the payload length no longer
// bounds a memory section's word count, so the decoder checks it
// against the meta section before it allocates the page table, and
// bounds the block count by the bytes left. A short image claiming
// 2^32-1 words, as its meta section does, and 2^31 blocks fails before
// allocating room for them (the page table alone would take 2.25 MiB);
// a word count the meta section disagrees with is corrupt, and fails
// before the page table is allocated.
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	const words = 1<<32 - 1
	for _, tc := range []struct {
		name  string
		image []byte
		want  []error
		limit uint64
	}{
		{"blocks", withMemSection(t, bareImage(words), words, 1<<31, 0, 1),
			[]error{artifact.ErrTruncated, artifact.ErrCorrupt}, 4 << 20},
		{"word-count", withMemSection(t, bareImage(1<<18), words, 0),
			[]error{artifact.ErrCorrupt}, 1 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(tc.image)
		runtime.ReadMemStats(&after)
		if !slices.ContainsFunc(tc.want, func(want error) bool { return errors.Is(err, want) }) ||
			!strings.HasPrefix(err.Error(), "CSNP section memory: ") {
			t.Errorf("%s: err = %v, want one of %v in CSNP section memory", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= tc.limit {
			t.Errorf("%s: decode allocated %d bytes", tc.name, got)
		}
	}
}

// TestMemorySectionCanonical pins the memory section's canonical form:
// hand-built sections whose block indices repeat, descend or run past
// the end of memory, or that carry an all-zero block, are corrupt. A
// memory whose size is not a multiple of the block, holding a word in
// its short last block, decodes and re-encodes byte for byte.
func TestMemorySectionCanonical(t *testing.T) {
	const (
		words = 1<<18 + 100           // a 1 MiB device, and 100 words more
		last  = words / memBlockWords // the short last block, of 100 words
	)
	block := func(index uint32, n int) []uint32 {
		out := append([]uint32{index}, make([]uint32, n)...)
		out[len(out)-1] = index + 1
		return out
	}
	base := bareImage(words)
	if _, err := Decode(withMemSection(t, base, slices.Concat([]uint32{words, 2}, block(1, memBlockWords), block(last, 100))...)); err != nil {
		t.Fatalf("well-formed hand-built section: %v", err)
	}
	for _, tc := range []struct {
		name    string
		payload []uint32
	}{
		{"repeated-index", slices.Concat([]uint32{words, 2}, block(1, memBlockWords), block(1, memBlockWords))},
		{"descending-index", slices.Concat([]uint32{words, 2}, block(2, memBlockWords), block(1, memBlockWords))},
		{"index-at-end", slices.Concat([]uint32{words, 1}, block(last+1, memBlockWords))},
		{"index-past-end", slices.Concat([]uint32{words, 1}, block(last+9, memBlockWords))},
		{"all-zero-block", slices.Concat([]uint32{words, 1, 2}, make([]uint32, memBlockWords))},
	} {
		for name, decode := range map[string]func([]byte) error{
			"Decode":            func(b []byte) error { _, err := Decode(b); return err },
			"DecodeSpeculative": func(b []byte) error { _, _, err := DecodeSpeculative(b); return err },
		} {
			err := decode(withMemSection(t, base, tc.payload...))
			if !errors.Is(err, artifact.ErrCorrupt) || !strings.HasPrefix(err.Error(), "CSNP section memory: ") {
				t.Errorf("%s %s: err = %v, want ErrCorrupt in CSNP section memory", tc.name, name, err)
			}
		}
	}

	cfg := sim.TestConfig()
	cfg.GlobalMemBytes = 4 * words
	d, _, _ := parkedOn(t, cfg, preempt.CTXBack, mustWorkload(t, "VA"))
	d.Mem.Store(words-1, 0xc0ffee)
	_, enc := Capture(d, 1)
	at, n := memPayload(t, enc)
	if got := binary.LittleEndian.Uint32(enc[at+n-4:]); got != 0xc0ffee {
		t.Fatalf("the memory section ends in %#x, want the short last block's last word", got)
	}
	snap, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if again := Encode(snap); !bytes.Equal(enc, again) {
		t.Fatal("a memory ending in a short block does not re-encode byte for byte")
	}
	if i := snap.State.Mem.Diff(d.Mem); i >= 0 {
		t.Fatalf("decoded mem[%d] = %#x, device %#x", i, snap.State.Mem.Load(i), d.Mem.Load(i))
	}
}

// TestImageIndependentOfCapacity: the same parked VA episode captured
// on a 1 MiB and on a 256 MiB device makes images of equal length,
// since the memory section carries only the blocks the kernel wrote,
// while the restores' transfer charges still differ by exactly the
// extra 4 bytes per word of the larger device.
func TestImageIndependentOfCapacity(t *testing.T) {
	wl := mustWorkload(t, "VA")
	var (
		images [2][]byte
		out    [2]Outcome
		words  [2]int
	)
	for i, mib := range []int{1, 256} {
		cfg := sim.TestConfig()
		cfg.GlobalMemBytes = mib << 20
		d, _, _ := parkedOn(t, cfg, preempt.CTXBack, wl)
		_, images[i] = Capture(d, 1)
		tech, err := preempt.New(preempt.CTXBack, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Restore(nil, images[i], images[i], 1, tech, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		out[i], words[i] = res.Outcome, d.Mem.Words()
	}
	if len(images[0]) != len(images[1]) {
		t.Errorf("images of %d and %d bytes; want equal lengths", len(images[0]), len(images[1]))
	}
	extra := float64(4*(words[1]-words[0])) / sim.TestConfig().CtxBytesPerCycle
	if got := out[1].TransferCycles - out[0].TransferCycles; float64(got) != extra {
		t.Errorf("transfer charges differ by %d cycles, want %v for the extra words", got, extra)
	}
}

// TestRestoreRoundTripTechniques: for every relocatable technique, a
// parked episode checkpoints, restores onto a fresh shell under a NEW
// technique instance, resumes there, and finishes with output identical
// to the undisturbed run — the device-level flashback analogue of the
// per-warp golden-equivalence property.
func TestRestoreRoundTripTechniques(t *testing.T) {
	for _, kind := range preempt.RelocatableKinds() {
		for _, abbrev := range []string{"VA", "MS"} {
			wl := mustWorkload(t, abbrev)
			_, golden := goldenCycles(t, sim.TestConfig(), wl)
			d, _, _ := parked(t, kind, wl)
			_, enc := Capture(d, 1)

			tech2, err := preempt.New(kind, wl.Prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Restore(nil, nil, enc, 1, tech2, wl.Prog)
			if err != nil {
				t.Fatalf("%v/%s: restore: %v", kind, abbrev, err)
			}
			finishRestored(t, res)
			if err := res.Validate(); err != nil {
				t.Fatalf("%v/%s: validate: %v", kind, abbrev, err)
			}
			if err := wl.Verify(res.Device); err != nil {
				t.Fatalf("%v/%s: verify after restore: %v", kind, abbrev, err)
			}
			if res.Device.Mem.Diff(golden) >= 0 {
				t.Fatalf("%v/%s: restored memory differs from undisturbed run", kind, abbrev)
			}
		}
	}
}

// memPayload returns the offset and length of the memory-section payload
// in an Encode image.
func memPayload(t testing.TB, enc []byte) (int, int) {
	t.Helper()
	for off := len(magic) + 2 + 8; off+6 <= len(enc); {
		id := binary.LittleEndian.Uint16(enc[off:])
		n := int(binary.LittleEndian.Uint32(enc[off+2:]))
		if id == secMem {
			return off + 6, n
		}
		off += 6 + n + 8
	}
	t.Fatal("image has no memory section")
	return 0, 0
}

// TestSnapshotMidSave covers the mid-episode edge: the checkpoint lands
// while victims are still executing their preemption routines, and the
// restored device completes the save, resumes, and verifies.
func TestSnapshotMidSave(t *testing.T) {
	wl := mustWorkload(t, "MS")
	cycles, _ := goldenCycles(t, sim.TestConfig(), wl)
	tech, err := preempt.New(preempt.CTXBack, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDevice(t, sim.TestConfig())
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.RunToCycle(cycles/2, maxCycles); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Preempt(0, tech); err != nil {
		t.Fatal(err)
	}
	// A handful of cycles into the save: warps sit mid preemption
	// routine (ModePreemptRoutine) with partial context buffers.
	if err := d.RunToCycle(d.Now()+40, maxCycles); err != nil {
		t.Fatal(err)
	}
	_, enc := Capture(d, 3)

	tech2, err := preempt.New(preempt.CTXBack, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restore(nil, enc, enc, 3, tech2, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ep := res.Index.Episodes[0]
	rd := res.Device
	if err := rd.RunUntil(ep.Saved, maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := rd.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := rd.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := wl.Verify(rd); err != nil {
		t.Fatalf("verify after mid-save restore: %v", err)
	}
}

// TestSpeculativeRestoreFlow exercises the PhoenixOS speculation state
// machine end to end: a bit flip in the bulk memory section passes the
// speculative structural decode, replay runs, and the deferred
// validator is what catches the corruption — after which the sync path
// with the authoritative bytes recovers the job. One flip sits in the
// payload's last bytes, one inside an all-zero 64-byte block, where the
// checksum folds the whole block into one multiply.
func TestSpeculativeRestoreFlow(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	_, enc := Capture(d, 5)

	memAt, memLen := memPayload(t, enc)
	zeroBlock := -1
	for at := memAt; at+64 <= memAt+memLen; at += 64 {
		if bytes.Equal(enc[at:at+64], make([]byte, 64)) {
			zeroBlock = at
			break
		}
	}
	if zeroBlock < 0 {
		t.Fatal("memory section has no all-zero 64-byte block")
	}
	for _, flip := range []struct {
		name string
		at   int
	}{
		{"payload-tail", memAt + memLen - 8},
		{"zero-block", zeroBlock + 37},
	} {
		corrupt := append([]byte(nil), enc...)
		corrupt[flip.at] ^= 0x10

		if _, err := Decode(corrupt); err == nil {
			t.Fatalf("%s: full decode accepted a corrupt memory section", flip.name)
		}

		tech, err := preempt.New(preempt.Baseline, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Restore(nil, corrupt, enc, 5, tech, wl.Prog)
		if err != nil {
			t.Fatalf("%s: restore: %v", flip.name, err)
		}
		if !res.Outcome.Speculative {
			t.Fatalf("%s: corrupt memory section should still restore speculatively", flip.name)
		}
		finishRestored(t, res)
		if err := res.Validate(); err == nil {
			t.Fatalf("%s: deferred validator missed the memory corruption", flip.name)
		}
	}

	// The caller's mandated next move: synchronous restore from the
	// authoritative image. It must verify clean.
	tech2, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Restore(nil, nil, enc, 5, tech2, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome.Speculative || res2.Outcome.SyncFallback {
		t.Fatalf("sync-only restore misreported outcome %+v", res2.Outcome)
	}
	finishRestored(t, res2)
	if err := wl.Verify(res2.Device); err != nil {
		t.Fatalf("verify after sync recovery: %v", err)
	}
}

// TestRestoreFallbacks pins the fallback ladder for each snapshot fault
// class: truncation and staleness kill the speculative path outright
// and the sync path recovers; corrupting both images leaves nothing to
// restore and the caller degrades to a from-scratch rerun.
func TestRestoreFallbacks(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Live, wl)
	snap, enc := Capture(d, 9)

	newTech := func() preempt.Technique {
		tech, err := preempt.New(preempt.Live, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return tech
	}

	t.Run("truncated", func(t *testing.T) {
		res, err := Restore(nil, enc[:len(enc)/3], enc, 9, newTech(), wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.SyncFallback || res.Outcome.SpecError == "" {
			t.Fatalf("outcome %+v, want sync fallback with recorded error", res.Outcome)
		}
		finishRestored(t, res)
		if err := wl.Verify(res.Device); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stale-epoch", func(t *testing.T) {
		stale := Encode(&Snapshot{Epoch: 8, State: snap.State})
		res, err := Restore(nil, stale, enc, 9, newTech(), wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.SyncFallback || !strings.Contains(res.Outcome.SpecError, "stale") {
			t.Fatalf("outcome %+v, want stale-epoch fallback", res.Outcome)
		}
		finishRestored(t, res)
		if err := wl.Verify(res.Device); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("both-corrupt", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[30] ^= 0x40 // control section: both decode paths must reject
		if _, err := Restore(nil, bad, bad, 9, newTech(), wl.Prog); err == nil {
			t.Fatal("restore accepted a doubly-corrupt snapshot")
		}
	})
}

// TestWarmPoolEquivalence: warm and cold restores differ only in the
// reported cost split, never in simulation outcome — the warm-pool
// on/off byte-diff the Makefile snap-diff target automates.
func TestWarmPoolEquivalence(t *testing.T) {
	wl := mustWorkload(t, "MS")
	d, _, _ := parked(t, preempt.CTXBack, wl)
	_, enc := Capture(d, 2)

	run := func(pool *Pool) (*Restored, *sim.Memory) {
		tech, err := preempt.New(preempt.CTXBack, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Restore(pool, enc, enc, 2, tech, wl.Prog)
		if err != nil {
			t.Fatal(err)
		}
		finishRestored(t, res)
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		return res, res.Device.Mem
	}

	pool, err := NewPool(sim.TestConfig(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Warm() != 2 {
		t.Fatalf("pool warm = %d, want 2", pool.Warm())
	}
	warmRes, warmMem := run(pool)
	if pool.Warm() != 1 {
		t.Fatalf("pool warm = %d after one Get, want 1", pool.Warm())
	}
	coldRes, coldMem := run(nil)

	if !warmRes.Outcome.Warm || coldRes.Outcome.Warm {
		t.Fatalf("warm flags: warm=%v cold=%v", warmRes.Outcome.Warm, coldRes.Outcome.Warm)
	}
	if warmRes.Outcome.SetupCycles != 0 {
		t.Fatalf("warm restore charged %d setup cycles", warmRes.Outcome.SetupCycles)
	}
	if coldRes.Outcome.SetupCycles != ColdSetupCycles(sim.TestConfig()) {
		t.Fatalf("cold restore charged %d setup cycles, want %d",
			coldRes.Outcome.SetupCycles, ColdSetupCycles(sim.TestConfig()))
	}
	if warmRes.Outcome.TransferCycles != coldRes.Outcome.TransferCycles {
		t.Fatal("transfer cycles differ between warm and cold")
	}
	if warmMem.Diff(coldMem) >= 0 {
		t.Fatal("warm and cold restores produced different memory")
	}
	if warmRes.Device.Now() != coldRes.Device.Now() || warmRes.Device.Stats != coldRes.Device.Stats {
		t.Fatal("warm and cold restores diverged in clock or stats")
	}
}

// TestRestorePoolMismatch: a pool built for a different device model
// must refuse the import cleanly.
func TestRestorePoolMismatch(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	_, enc := Capture(d, 1)
	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}

	big, err := NewPool(sim.DefaultConfig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(big, enc, enc, 1, tech, wl.Prog); err == nil ||
		!strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("config-mismatch restore: %v", err)
	}
}

// TestDecodeRejectsMetaWidth: the meta word that held the shard width
// of the epoch-parallel engine must read 1. The image is built with the
// section writers, so every checksum holds and only that word reads 2;
// Decode and DecodeSpeculative must both refuse it as corrupt, naming
// the meta section.
func TestDecodeRejectsMetaWidth(t *testing.T) {
	d, _, _ := parked(t, preempt.Baseline, mustWorkload(t, "VA"))
	st, _ := d.ExportState()
	image := func(width uint64) []byte {
		cfg := artifact.NewWriter()
		putConfig(cfg, st.Cfg)
		meta := artifact.NewWriter()
		putMeta(meta, st)
		binary.LittleEndian.PutUint64(meta.Data()[len(cfg.Data()):], width)

		w := artifact.NewWriter()
		w.Header(magic, version)
		w.U64(1)
		w.Section(secMeta, func() { copy(w.Extend(len(meta.Data())), meta.Data()) })
		w.Section(secProgs, func() { putProgs(w, st) })
		w.Section(secLaunches, func() { putLaunches(w, st) })
		w.Section(secSMs, func() { putSMs(w, st) })
		w.Section(secEpisodes, func() { putEpisodes(w, st) })
		putMem(w, st.Mem)
		return w.Data()
	}
	if !bytes.Equal(image(1), Encode(&Snapshot{Epoch: 1, State: st})) {
		t.Fatal("the test's image at width 1 is not Encode's")
	}
	bad := image(2)
	wantErr := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, artifact.ErrCorrupt) || !strings.HasPrefix(err.Error(), "CSNP section meta: ") {
			t.Errorf("%s of width 2: err = %v, want ErrCorrupt in CSNP section meta", what, err)
		}
	}
	_, err := Decode(bad)
	wantErr("Decode", err)
	_, _, err = DecodeSpeculative(bad)
	wantErr("DecodeSpeculative", err)
}

// TestSnapshotPrograms: the embedded program images decode back into
// importable programs (the cross-host restore path).
func TestSnapshotPrograms(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	snap, enc := Capture(d, 4)
	progs, err := snap.Programs()
	if err != nil {
		t.Fatal(err)
	}
	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restore(nil, nil, enc, 4, tech, progs...)
	if err != nil {
		t.Fatalf("restore with decoded programs: %v", err)
	}
	finishRestored(t, res)
	if err := wl.Verify(res.Device); err != nil {
		t.Fatal(err)
	}
}
