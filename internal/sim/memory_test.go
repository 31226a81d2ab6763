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

// memSide is one live Memory of checkMemoryOps beside its flat oracle.
type memSide struct {
	m    *Memory
	want []uint32
	// mayOwn[p]: a non-zero word was stored in page p since it was last
	// cleared whole. A page without it must have no storage.
	mayOwn []bool
}

func (s *memSide) stored(at int, src ...uint32) {
	for i, v := range src {
		if v != 0 {
			s.mayOwn[(at+i)/PageWords] = true
		}
	}
}

// maxSides bounds the memories checkMemoryOps keeps live; a clone past
// it retires the oldest.
const maxSides = 3

// firstDiff returns the first index at which a and b differ, or -1; it
// is Memory.Diff's oracle for two memories of one size.
func firstDiff(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// checkMemoryOps drives Memories of words words, each beside a flat
// []uint32 oracle, through the operation stream ops and reports the
// first disagreement. A clone step adds a clone of one live memory, which
// must share every page with its source; every other step acts on one
// live memory the stream picks. After each step every live memory must
// agree with its own oracle over the words the step wrote, so a write
// that shows through a shared page in another memory fails, and two
// memories holding one page must both mark it shared. Diff of every two
// live memories must give the first word at which their oracles differ,
// over shared, copied and storage-less pages alike. It also reports a
// page with storage although no non-zero word reached it since it was
// last cleared whole, and a write to the shared zero page.
func checkMemoryOps(words int, ops []byte) error {
	sides := []*memSide{{m: NewMemory(words), want: make([]uint32, words), mayOwn: make([]bool, (words+PageWords-1)/PageWords)}}
	r := &memOps{b: ops}
	for step := 0; len(r.b) > 0; step++ {
		op := r.next() % 7
		si := int(r.next()) % len(sides)
		s := sides[si]
		lo, hi := 0, 0 // the words the step wrote
		switch op {
		case 0:
			i, v := r.index(words), r.value()
			s.m.Store(i, v)
			s.want[i] = v
			s.stored(i, v)
			lo, hi = i, i+1
		case 1:
			i := r.index(words)
			if got := s.m.Load(i); got != s.want[i] {
				return fmt.Errorf("step %d: memory %d: Load(%d) = %#x, want %#x", step, si, i, got, s.want[i])
			}
		case 2:
			at, n := r.span(words)
			got := make([]uint32, n)
			s.m.Read(at, got)
			if !slices.Equal(got, s.want[at:at+n]) {
				return fmt.Errorf("step %d: memory %d: Read(%d, %d words) differs", step, si, at, n)
			}
		case 3:
			at, n := r.span(words)
			src := r.words(n)
			s.m.Write(at, src)
			copy(s.want[at:], src)
			s.stored(at, src...)
			lo, hi = at, at+n
		case 4:
			at, n := r.span(words)
			s.m.Clear(at, n)
			clear(s.want[at : at+n])
			for p := range s.mayOwn {
				if first := p * PageWords; at <= first && min(first+PageWords, words) <= at+n {
					s.mayOwn[p] = false
				}
			}
			lo, hi = at, at+n
		case 5:
			// A store through the vector path's page lookup.
			i, v := r.index(words), r.value()
			if p, base, n := s.m.lanePage(uint32(4*i), true, v); p != nil {
				w := (uint32(4*i) - base) >> 2
				if w >= n {
					return fmt.Errorf("step %d: lanePage(%d) gave a page of %d words at %d", step, 4*i, n, base)
				}
				p[w] = v
			}
			s.want[i] = v
			s.stored(i, v)
			lo, hi = i, i+1
		case 6:
			c := &memSide{m: s.m.Clone(), want: slices.Clone(s.want), mayOwn: slices.Clone(s.mayOwn)}
			for p, pg := range c.m.pages {
				if pg != s.m.pages[p] {
					return fmt.Errorf("step %d: clone of memory %d does not share page %d", step, si, p)
				}
			}
			if sides = append(sides, c); len(sides) > maxSides {
				sides = sides[1:]
			}
		}
		for a, sa := range sides {
			for i := lo; i < hi; i++ {
				if got := sa.m.Load(i); got != sa.want[i] {
					return fmt.Errorf("step %d (op %d on memory %d): memory %d word %d = %#x, want %#x", step, op, si, a, i, got, sa.want[i])
				}
			}
			for p, pg := range sa.m.pages {
				if pg != nil && !sa.mayOwn[p] {
					return fmt.Errorf("step %d (op %d): memory %d page %d has storage, but no non-zero word reached it", step, op, a, p)
				}
				for b, sb := range sides {
					if b != a && pg != nil && sb.m.pages[p] == pg && !sa.m.shared[p] {
						return fmt.Errorf("step %d (op %d): memories %d and %d hold page %d, unmarked in %d", step, op, a, b, p, a)
					}
				}
			}
			for b, sb := range sides[a+1:] {
				b += a + 1
				if got, want := sa.m.Diff(sb.m), firstDiff(sa.want, sb.want); got != want {
					return fmt.Errorf("step %d (op %d): memories %d and %d: Diff = %d, want %d", step, op, a, b, got, want)
				}
			}
		}
	}
	for a, s := range sides {
		next := 0
		var err error
		s.m.Runs(0, words, func(off int, run []uint32, owned bool) {
			switch {
			case err != nil:
			case off != next:
				err = fmt.Errorf("run at offset %d, want %d", off, next)
			case owned != (s.m.pages[off/PageWords] != nil):
				err = fmt.Errorf("run at word %d: owned = %v", off, owned)
			case !slices.Equal(run, s.want[off:off+len(run)]):
				err = fmt.Errorf("run at word %d differs from the oracle", off)
			}
			next = off + len(run)
		})
		if err == nil && next != words {
			err = fmt.Errorf("runs cover %d words, want %d", next, words)
		}
		if err != nil {
			return fmt.Errorf("memory %d: %w", a, err)
		}
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
