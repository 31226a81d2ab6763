package sim

import (
	"fmt"
	"slices"
)

// PageBytes is the size of one page of device memory, 64 KiB. Host cost
// scales with the pages kernels store to, so smaller pages track a
// kernel's footprint more tightly, while larger ones make fewer page
// changes on the vector load/store path and fewer allocations as pages
// get storage; 64 KiB measured best on the repository benchmark
// (DESIGN.md, "Memory model").
const PageBytes = 4 * PageWords

// PageWords is the number of 32-bit words in one page.
const PageWords = 1 << pageShift

const (
	pageShift = 14
	pageMask  = PageWords - 1
)

type page [PageWords]uint32

// zeroPage is what every page without storage of its own reads as. Every
// Memory in the process shares it, so nothing may ever write to it.
var zeroPage page

// Memory is a device's global memory: Words() 32-bit words in pages of
// PageWords, the last possibly partial. It is demand-zero: a page has no
// storage of its own, and reads as zero, until a non-zero word is stored
// in it, so host memory and the cost of copying, hashing and encoding the
// image scale with the pages kernels touch, not with the device's
// capacity. Storing zero to a page without storage leaves it without.
//
// It is also copy-on-write: Clone shares page storage with the source,
// and the first write to a shared page, on either side, copies it. A
// page keeps its shared mark until it is copied or released, so a write
// after the other side has gone copies once more than it needs to, and
// nothing ever writes to storage that two memories hold.
//
// Word indices must lie in [0, Words()); out-of-range indices panic, as
// slice indexing does.
type Memory struct {
	pages []*page // nil: no storage of its own; reads as zero
	// shared[pi]: pages[pi] may be held by another Memory too, so a
	// write must copy it first.
	shared []bool
	words  int
}

// NewMemory returns words words of zero memory, none with storage of its
// own.
func NewMemory(words int) *Memory {
	if words < 0 {
		panic(fmt.Sprintf("sim: NewMemory(%d)", words))
	}
	n := (words + PageWords - 1) / PageWords
	return &Memory{pages: make([]*page, n), shared: make([]bool, n), words: words}
}

// Words returns the memory's size in 32-bit words.
func (m *Memory) Words() int { return m.words }

// check panics unless the words [at, at+n) lie in memory.
func (m *Memory) check(at, n int) {
	if at < 0 || n < 0 || at > m.words-n {
		panic(fmt.Sprintf("sim: memory words [%d, %d) outside [0, %d)", at, at+n, m.words))
	}
}

// own returns page pi's storage for writing: storage of its own first
// if it has none, and a private copy first if it is shared.
func (m *Memory) own(pi int) *page {
	p := m.pages[pi]
	switch {
	case p == nil:
		p = new(page)
	case m.shared[pi]:
		p = (*page)(slices.Clone(p[:]))
	default:
		return p
	}
	m.pages[pi], m.shared[pi] = p, false
	return p
}

// Load returns word i.
func (m *Memory) Load(i int) uint32 {
	m.check(i, 1)
	if p := m.pages[i>>pageShift]; p != nil {
		return p[i&pageMask]
	}
	return 0
}

// Store sets word i to v.
func (m *Memory) Store(i int, v uint32) {
	m.check(i, 1)
	pi := i >> pageShift
	p := m.pages[pi]
	if p == nil || m.shared[pi] {
		if p == nil && v == 0 {
			return
		}
		p = m.own(pi)
	}
	p[i&pageMask] = v
}

// Read copies the words [at, at+len(dst)) into dst.
func (m *Memory) Read(at int, dst []uint32) {
	m.Runs(at, len(dst), func(off int, run []uint32, _ bool) { copy(dst[off:], run) })
}

// Write copies src into the words from at. A page without storage that
// src would fill only with zeros stays without.
func (m *Memory) Write(at int, src []uint32) {
	m.check(at, len(src))
	for len(src) > 0 {
		o := at & pageMask
		n := min(len(src), PageWords-o)
		if pi := at >> pageShift; m.pages[pi] != nil || slices.ContainsFunc(src[:n], nonZero) {
			copy(m.own(pi)[o:], src[:n])
		}
		at, src = at+n, src[n:]
	}
}

func nonZero(v uint32) bool { return v != 0 }

// Clear zeroes the words [at, at+n). A page the range covers whole gives
// up its storage instead of being zeroed.
func (m *Memory) Clear(at, n int) {
	m.check(at, n)
	for end := at + n; at < end; {
		pi, o := at>>pageShift, at&pageMask
		k := min(end-at, PageWords-o)
		if m.pages[pi] != nil {
			if o == 0 && at+k == min(at+PageWords, m.words) {
				m.pages[pi], m.shared[pi] = nil, false
			} else {
				clear(m.own(pi)[o : o+k])
			}
		}
		at += k
	}
}

// Clone returns a copy of m that shares m's page storage until either
// side writes a page. It marks a page of m shared only if it is not
// already, so clones of a memory whose pages are all marked, such as a
// clone, only read it and may run concurrently.
func (m *Memory) Clone() *Memory {
	c := NewMemory(m.words)
	copy(c.pages, m.pages)
	for pi, p := range m.pages {
		if p != nil {
			if !m.shared[pi] {
				m.shared[pi] = true
			}
			c.shared[pi] = true
		}
	}
	return c
}

// Runs calls fn once for each page the words [at, at+n) touch, in order:
// run holds the range's words in that page and off is run's offset from
// at. owned reports whether the page has storage, its own or shared by a
// clone; a run on a page without is a view of the shared zero page. fn
// must not modify run: writes go through Store, Write and Clear, which
// copy a shared page first.
func (m *Memory) Runs(at, n int, fn func(off int, run []uint32, owned bool)) {
	m.check(at, n)
	for off := 0; off < n; {
		i := at + off
		o := i & pageMask
		k := min(n-off, PageWords-o)
		if p := m.pages[i>>pageShift]; p != nil {
			fn(off, p[o:o+k], true)
		} else {
			fn(off, zeroPage[o:o+k], false)
		}
		off += k
	}
}

// Diff returns the index of the first word at which m and o differ, or
// -1 when they hold the same words. Memories of different sizes differ at
// the end of the shorter one.
func (m *Memory) Diff(o *Memory) int {
	n := min(m.words, o.words)
	for lo := 0; lo < n; lo += PageWords {
		a, b := m.pages[lo>>pageShift], o.pages[lo>>pageShift]
		if a == b {
			continue // both without storage, or sharing it
		}
		if a == nil {
			a = &zeroPage
		}
		if b == nil {
			b = &zeroPage
		}
		for i := range min(PageWords, n-lo) {
			if a[i] != b[i] {
				return lo + i
			}
		}
	}
	if m.words != o.words {
		return n
	}
	return -1
}

// lanePage serves the vector global-memory fast path. addr is an aligned
// byte address inside memory; lanePage returns the page holding it, the
// byte address base of the page's first word and n, the number of its
// words that lie in memory, so a lane at byte address a is aligned and
// inside the page exactly when RotateLeft32(a-base, -2) < n. A load may
// get the shared zero page. A store of v gets storage of its own, except
// a store of zero to a page without storage, which gets p == nil and
// n == 0: the store leaves the page as it is. A store to a shared page
// gets a private copy.
func (m *Memory) lanePage(addr uint32, store bool, v uint32) (p *page, base, n uint32) {
	pi := int(addr >> (pageShift + 2))
	p = m.pages[pi]
	switch {
	case !store:
		if p == nil {
			p = &zeroPage
		}
	case p == nil && v == 0:
		return nil, 0, 0
	case p == nil || m.shared[pi]:
		p = m.own(pi)
	}
	lo := pi << pageShift
	return p, uint32(lo) << 2, uint32(min(PageWords, m.words-lo))
}
