package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// memOps decodes an operation stream for checkMemoryOps; an exhausted
// stream reads as zeros.
type memOps struct{ b []byte }

func (r *memOps) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// index returns a word index in [0, words): half the time within 8 words
// of a page boundary (the end of memory included), otherwise anywhere.
func (r *memOps) index(words int) int {
	c := r.next()
	var i int
	if c&1 == 0 {
		k := int(c>>1) % (words/PageWords + 2)
		i = k*PageWords + int(r.next()%16) - 8
	} else {
		i = (int(c>>1) | int(r.next())<<7 | int(r.next())<<15) % words
	}
	return min(max(i, 0), words-1)
}

// span returns a range [at, at+n) inside memory: short, about a page,
// about two pages, or to the end of memory.
func (r *memOps) span(words int) (at, n int) {
	at = r.index(words)
	c := r.next()
	switch c % 4 {
	case 0:
		n = int(c>>2) % 40
	case 1:
		n = PageWords + int(r.next()%16) - 8
	case 2:
		n = 2*PageWords + int(r.next()%16) - 8
	default:
		n = words
	}
	return at, min(max(n, 0), words-at)
}

// value returns zero half the time, so zero writes are common.
func (r *memOps) value() uint32 {
	c := r.next()
	if c&1 == 0 {
		return 0
	}
	return uint32(c) | uint32(r.next())<<8 | uint32(r.next())<<24
}

// words returns n words from a seeded xorshift generator, about a third
// of them non-zero, or all zero when the stream says so.
func (r *memOps) words(n int) []uint32 {
	x, dense := uint32(r.next())<<8|1, r.next()%4 != 0
	src := make([]uint32, n)
	for i := range src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if dense && x%3 == 0 {
			src[i] = x
		}
	}
	return src
}

// checkMemoryOps drives a Memory of words words and a flat []uint32
// oracle through the operation stream ops and reports the first
// disagreement: a word, a page that has storage although no non-zero
// word reached it since it was last cleared whole, a clone that shares
// storage with its source, or a write to the shared zero page.
func checkMemoryOps(words int, ops []byte) error {
	m, want := NewMemory(words), make([]uint32, words)
	// mayOwn[p]: a non-zero word was stored in page p since it was last
	// cleared whole. A page without it must have no storage.
	mayOwn := make([]bool, len(m.pages))
	stored := func(at int, src ...uint32) {
		for i, v := range src {
			if v != 0 {
				mayOwn[(at+i)/PageWords] = true
			}
		}
	}
	r := &memOps{b: ops}
	for step := 0; len(r.b) > 0; step++ {
		op := r.next() % 6
		switch op {
		case 0:
			i, v := r.index(words), r.value()
			m.Store(i, v)
			want[i] = v
			stored(i, v)
		case 1:
			i := r.index(words)
			if got := m.Load(i); got != want[i] {
				return fmt.Errorf("step %d: Load(%d) = %#x, want %#x", step, i, got, want[i])
			}
		case 2:
			at, n := r.span(words)
			got := make([]uint32, n)
			m.Read(at, got)
			if !slices.Equal(got, want[at:at+n]) {
				return fmt.Errorf("step %d: Read(%d, %d words) differs", step, at, n)
			}
		case 3:
			at, n := r.span(words)
			src := r.words(n)
			m.Write(at, src)
			copy(want[at:], src)
			stored(at, src...)
		case 4:
			at, n := r.span(words)
			m.Clear(at, n)
			clear(want[at : at+n])
			for p := range mayOwn {
				if lo := p * PageWords; at <= lo && min(lo+PageWords, words) <= at+n {
					mayOwn[p] = false
				}
			}
		case 5:
			// The clone must hold the same words in storage of its own:
			// a store to it is invisible in the source. Go on with it.
			c := m.Clone()
			for p := range c.pages {
				if c.pages[p] != nil && c.pages[p] == m.pages[p] {
					return fmt.Errorf("step %d: clone shares page %d", step, p)
				}
			}
			if i := c.Diff(m); i >= 0 {
				return fmt.Errorf("step %d: clone differs at word %d", step, i)
			}
			i, v := r.index(words), r.value()
			c.Store(i, v)
			if got := m.Load(i); got != want[i] {
				return fmt.Errorf("step %d: store to clone changed source word %d", step, i)
			}
			wantDiff := -1
			if v != want[i] {
				wantDiff = i
			}
			if d := c.Diff(m); d != wantDiff {
				return fmt.Errorf("step %d: Diff after a store to word %d of a clone = %d, want %d", step, i, d, wantDiff)
			}
			m, want[i] = c, v
			stored(i, v)
		}
		for p, pg := range m.pages {
			if pg != nil && !mayOwn[p] {
				return fmt.Errorf("step %d (op %d): page %d has storage, but no non-zero word reached it", step, op, p)
			}
		}
	}
	next := 0
	var err error
	m.Runs(0, words, func(off int, run []uint32, owned bool) {
		switch {
		case err != nil:
		case off != next:
			err = fmt.Errorf("run at offset %d, want %d", off, next)
		case owned != (m.pages[off/PageWords] != nil):
			err = fmt.Errorf("run at word %d: owned = %v", off, owned)
		case !slices.Equal(run, want[off:off+len(run)]):
			err = fmt.Errorf("run at word %d differs from the oracle", off)
		}
		next = off + len(run)
	})
	if err == nil && next != words {
		err = fmt.Errorf("runs cover %d words, want %d", next, words)
	}
	if err != nil {
		return err
	}
	if zeroPage != (page{}) {
		return fmt.Errorf("the shared zero page was written")
	}
	return nil
}

// memorySizes cover a memory smaller than a page, exact multiples of a
// page, and a final partial page.
var memorySizes = []int{1, 5, PageWords - 1, PageWords, PageWords + 1, 2*PageWords + 37, 3 * PageWords}

// TestMemoryMatchesFlatOracle runs random operation streams against a
// flat []uint32 oracle at every size of memorySizes.
func TestMemoryMatchesFlatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, words := range memorySizes {
		for c := 0; c < 40; c++ {
			ops := make([]byte, 64+rng.Intn(256))
			rng.Read(ops)
			if err := checkMemoryOps(words, ops); err != nil {
				t.Fatalf("%d words, ops %x: %v", words, ops, err)
			}
		}
	}
}

// owned returns the number of m's pages with storage of their own.
func owned(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestMemoryZeroWritesKeepNoStorage pins the demand-zero rules directly:
// zero stores and all-zero writes give no page storage, a non-zero store
// gives exactly its page storage, and clearing a range releases exactly
// the pages it covers whole, the final partial page included.
func TestMemoryZeroWritesKeepNoStorage(t *testing.T) {
	const words = 2*PageWords + 37
	m := NewMemory(words)
	m.Store(PageWords, 0)
	m.Write(0, make([]uint32, words))
	if n := owned(m); n != 0 {
		t.Fatalf("zero writes gave %d pages storage", n)
	}
	m.Store(PageWords+3, 9)
	m.Store(2*PageWords+36, 1)
	if n := owned(m); n != 2 || m.pages[1] == nil || m.pages[2] == nil {
		t.Fatalf("two non-zero stores gave %d pages storage", n)
	}
	m.Clear(PageWords+1, words-PageWords-1) // page 1 in part, page 2 whole
	if m.pages[1] == nil || m.pages[2] != nil {
		t.Fatalf("clear kept storage: page 1 %v, page 2 %v", m.pages[1] != nil, m.pages[2] != nil)
	}
	if m.Load(PageWords+3) != 0 || m.Load(2*PageWords+36) != 0 {
		t.Fatal("cleared words read non-zero")
	}
}

func FuzzMemory(f *testing.F) {
	f.Add(uint16(3*PageWords-1), []byte{})
	f.Add(uint16(PageWords+7), []byte{0, 2, 8, 3, 5, 0, 2, 9, 1, 1, 2, 8, 4, 2, 0, 1})
	f.Add(uint16(2*PageWords+36), []byte{3, 2, 0, 2, 7, 2, 4, 4, 0, 1, 5, 6, 8, 1, 3, 2, 0})
	ops := make([]byte, 512)
	rand.New(rand.NewSource(3)).Read(ops)
	f.Add(uint16(2*PageWords+36), ops)
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		if err := checkMemoryOps(1+int(size), ops); err != nil {
			t.Fatal(err)
		}
	})
}
