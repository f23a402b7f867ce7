// Package mem models the Alto's main memory: 64K 16-bit words, with no
// protection hardware of any kind. Everything in the machine — user program,
// operating system packages, stream records, zone free lists, the keyboard
// buffer — lives in this one flat address space, which is precisely what
// makes the paper's open organization (and its Junta) possible.
package mem

import "fmt"

// Word is the 16-bit machine word.
type Word = uint16

// Addr is a word address in the 64K space.
type Addr = uint16

// Words is the size of main memory in words (§2: "64k words of 800 ns
// memory").
const Words = 1 << 16

// pageWords is the size of one page of the host's storage for memory, and
// numPages the number of pages in the address space. Pages are a host
// economy, not a feature of the machine: the Alto has no paging hardware.
const (
	pageWords = 256
	numPages  = Words / pageWords
)

// page is one page of memory words.
type page [pageWords]Word

// Memory is the machine's main store. The zero value is all-zero memory,
// ready to use.
//
// A Memory holds only the pages a program has stored something nonzero
// into: a page is allocated on its first nonzero store, and a page with no
// storage reads as zeros. A booted machine touches a few pages of its 64K
// words, so it pays for those alone. A Memory must not be copied: a copy
// would share its pages with the original.
type Memory struct {
	_     noCopy
	pages [numPages]*page
}

// noCopy makes go vet's copylocks check reject a copied Memory.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New returns zeroed memory.
func New() *Memory { return &Memory{} }

// Load returns the word at address a.
func (m *Memory) Load(a Addr) Word {
	if p := m.pages[a/pageWords]; p != nil {
		return p[a%pageWords]
	}
	return 0
}

// Store writes the word at address a.
func (m *Memory) Store(a Addr, v Word) {
	p := m.pages[a/pageWords]
	if p == nil {
		if v == 0 {
			return
		}
		p = new(page)
		m.pages[a/pageWords] = p
	}
	p[a%pageWords] = v
}

// LoadBlock copies n words starting at a into dst (which must have length
// >= n). The copy wraps at the top of memory, as the hardware would.
func (m *Memory) LoadBlock(a Addr, dst []Word) {
	for len(dst) > 0 {
		off := int(a % pageWords)
		n := min(len(dst), pageWords-off)
		if p := m.pages[a/pageWords]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// StoreBlock copies src into memory starting at a, wrapping at the top.
func (m *Memory) StoreBlock(a Addr, src []Word) {
	for len(src) > 0 {
		off := int(a % pageWords)
		n := min(len(src), pageWords-off)
		p := m.pages[a/pageWords]
		if p == nil && !allZero(src[:n]) {
			p = new(page)
			m.pages[a/pageWords] = p
		}
		if p != nil {
			copy(p[off:], src[:n])
		}
		src = src[n:]
		a += Addr(n)
	}
}

func allZero(s []Word) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// Snapshot returns a copy of all of memory. OutLoad's raw material.
func (m *Memory) Snapshot() []Word {
	s := make([]Word, Words)
	m.LoadBlock(0, s)
	return s
}

// Restore replaces all of memory from a snapshot. It panics if the snapshot
// is not exactly memory-sized; a partial machine state is never restorable.
// A page the snapshot holds as all zeros gives up its storage.
func (m *Memory) Restore(s []Word) {
	if len(s) != Words {
		panic(fmt.Sprintf("mem: Restore with %d words, need %d", len(s), Words))
	}
	for i := range m.pages {
		src := s[i*pageWords : (i+1)*pageWords]
		switch {
		case allZero(src):
			m.pages[i] = nil
		case m.pages[i] == nil:
			m.pages[i] = new(page)
			fallthrough
		default:
			copy(m.pages[i][:], src)
		}
	}
}

// Clear zeroes n words starting at a.
func (m *Memory) Clear(a Addr, n int) {
	for n > 0 {
		off := int(a % pageWords)
		k := min(n, pageWords-off)
		if p := m.pages[a/pageWords]; p != nil {
			clear(p[off : off+k])
		}
		n -= k
		a += Addr(k)
	}
}

// Checksum returns a simple additive checksum of all memory, used by tests
// to compare machine states cheaply.
func (m *Memory) Checksum() uint32 {
	var sum uint32
	for i, p := range m.pages {
		if p == nil {
			continue // zero words add nothing
		}
		for j, v := range p {
			sum += uint32(v) * uint32(i*pageWords+j+1)
		}
	}
	return sum
}

// Resident returns the number of pages holding storage: the host memory
// the machine actually occupies, in pages.
func (m *Memory) Resident() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Region is a half-open range [Start, End) of the address space. The
// operating system's level structure (§5.2) is expressed as regions.
type Region struct {
	Start Addr
	End   Addr // exclusive; End==0 with Start>0 means "through the top"
}

// Size returns the region's length in words.
func (r Region) Size() int {
	end := int(r.End)
	if end == 0 && r.Start > 0 {
		end = Words
	}
	return end - int(r.Start)
}

// Contains reports whether a lies in the region.
func (r Region) Contains(a Addr) bool {
	end := int(r.End)
	if end == 0 && r.Start > 0 {
		end = Words
	}
	return int(a) >= int(r.Start) && int(a) < end
}

// String implements fmt.Stringer.
func (r Region) String() string {
	end := int(r.End)
	if end == 0 && r.Start > 0 {
		end = Words
	}
	return fmt.Sprintf("[%#04x, %#05x)", r.Start, end)
}
