package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"altoos/internal/sim"
)

func TestLoadStore(t *testing.T) {
	m := New()
	m.Store(0, 0x1234)
	m.Store(0xFFFF, 0xBEEF)
	if m.Load(0) != 0x1234 || m.Load(0xFFFF) != 0xBEEF {
		t.Fatal("load/store round trip failed")
	}
}

func TestBlockWraps(t *testing.T) {
	m := New()
	src := []Word{1, 2, 3, 4}
	m.StoreBlock(0xFFFE, src)
	if m.Load(0xFFFE) != 1 || m.Load(0xFFFF) != 2 || m.Load(0) != 3 || m.Load(1) != 4 {
		t.Fatal("StoreBlock did not wrap at top of memory")
	}
	dst := make([]Word, 4)
	m.LoadBlock(0xFFFE, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("LoadBlock wrap: dst[%d]=%d want %d", i, dst[i], src[i])
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Store(Addr(i*613), Word(i))
	}
	snap := m.Snapshot()
	before := m.Checksum()
	m.Store(5, 0xDEAD)
	if m.Checksum() == before {
		t.Fatal("checksum insensitive to change")
	}
	m.Restore(snap)
	if m.Checksum() != before {
		t.Fatal("restore did not reproduce the snapshot")
	}
	// Snapshot is a copy: mutating memory must not change it.
	m.Store(6, 0xBEEF)
	if snap[6] == 0xBEEF {
		t.Fatal("snapshot aliases live memory")
	}
}

func TestRestorePanicsOnShortSnapshot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Restore of short snapshot did not panic")
		}
	}()
	New().Restore(make([]Word, 10))
}

func TestClear(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		m.Store(Addr(100+i), 0xAAAA)
	}
	m.Clear(102, 4)
	for i := 0; i < 10; i++ {
		v := m.Load(Addr(100 + i))
		inCleared := i >= 2 && i < 6
		if inCleared && v != 0 {
			t.Errorf("word %d not cleared", i)
		}
		if !inCleared && v != 0xAAAA {
			t.Errorf("word %d clobbered", i)
		}
	}
}

func TestRegion(t *testing.T) {
	r := Region{Start: 0x100, End: 0x200}
	if r.Size() != 0x100 {
		t.Errorf("Size = %d", r.Size())
	}
	if !r.Contains(0x100) || r.Contains(0x200) || r.Contains(0xFF) {
		t.Error("Contains wrong at boundaries")
	}
	top := Region{Start: 0xFF00, End: 0}
	if top.Size() != 0x100 {
		t.Errorf("through-the-top region Size = %d", top.Size())
	}
	if !top.Contains(0xFFFF) || top.Contains(0xFEFF) {
		t.Error("through-the-top Contains wrong")
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(a Addr, data []Word) bool {
		if len(data) > Words {
			data = data[:Words]
		}
		m := New()
		m.StoreBlock(a, data)
		got := make([]Word, len(data))
		m.LoadBlock(a, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// flat is the reference for the paged Memory: the whole address space as
// one array, with each method written the obvious way.
type flat [Words]Word

func (f *flat) loadBlock(a Addr, dst []Word) {
	for i := range dst {
		dst[i] = f[a+Addr(i&0xFFFF)]
	}
}

func (f *flat) storeBlock(a Addr, src []Word) {
	for i, v := range src {
		f[a+Addr(i&0xFFFF)] = v
	}
}

func (f *flat) clear(a Addr, n int) {
	for i := 0; i < n; i++ {
		f[a+Addr(i&0xFFFF)] = 0
	}
}

func (f *flat) checksum() uint32 {
	var sum uint32
	for i, v := range f {
		sum += uint32(v) * uint32(i+1)
	}
	return sum
}

// nonzeroPages counts the pages holding a nonzero word: the least storage
// a Memory with these contents can hold.
func (f *flat) nonzeroPages() int {
	n := 0
	for p := 0; p < numPages; p++ {
		for _, v := range f[p*pageWords : (p+1)*pageWords] {
			if v != 0 {
				n++
				break
			}
		}
	}
	return n
}

// TestPagedMatchesFlat runs a seeded random sequence of every Memory
// method on a zero-value Memory and on the flat reference, comparing after
// each step. Addresses cluster at page boundaries and at the top of memory
// so block copies and clears straddle pages and wrap; lengths run past the
// whole space now and then; half the values stored are zero, which must
// never allocate a page.
func TestPagedMatchesFlat(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		var m Memory
		ref := new(flat)
		r := sim.NewRand(seed)
		addr := func() Addr {
			switch r.Intn(3) {
			case 0:
				return Addr(r.Intn(Words))
			case 1:
				return Addr((r.Intn(numPages)*pageWords + r.Intn(9) - 4) & 0xFFFF)
			}
			return Addr((Words - 1 - r.Intn(pageWords)) & 0xFFFF)
		}
		length := func() int {
			if r.Bool(1, 40) {
				return Words + r.Intn(2*pageWords)
			}
			return r.Intn(3 * pageWords)
		}
		word := func() Word {
			if r.Bool(1, 2) {
				return 0
			}
			return r.Word()
		}
		for step := 0; step < 600; step++ {
			a := addr()
			switch r.Intn(7) {
			case 0, 1:
				v := word()
				m.Store(a, v)
				ref[a] = v
			case 2:
				src := make([]Word, length())
				for i := range src {
					src[i] = word()
				}
				m.StoreBlock(a, src)
				ref.storeBlock(a, src)
			case 3:
				n := length()
				got, want := make([]Word, n), make([]Word, n)
				for i := range got {
					got[i] = 0x5A5A // LoadBlock must overwrite every word
				}
				m.LoadBlock(a, got)
				ref.loadBlock(a, want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: LoadBlock(%#04x, %d) differs", seed, step, a, n)
				}
			case 4:
				n := length()
				m.Clear(a, n)
				ref.clear(a, n)
			case 5:
				if got := m.Snapshot(); !slices.Equal(got, ref[:]) {
					t.Fatalf("seed %d step %d: Snapshot differs", seed, step)
				}
			case 6:
				snap := make([]Word, Words)
				for i := 0; i < 1+r.Intn(2*pageWords); i++ {
					snap[r.Intn(Words)] = r.Word()
				}
				m.Restore(snap)
				copy(ref[:], snap)
				if got, want := m.Resident(), ref.nonzeroPages(); got != want {
					t.Fatalf("seed %d step %d: Restore left %d pages resident, want %d", seed, step, got, want)
				}
			}
			if got, want := m.Load(a), ref[a]; got != want {
				t.Fatalf("seed %d step %d: Load(%#04x) = %#04x, want %#04x", seed, step, a, got, want)
			}
			if got, want := m.Checksum(), ref.checksum(); got != want {
				t.Fatalf("seed %d step %d: Checksum %#x, want %#x", seed, step, got, want)
			}
			if got, least := m.Resident(), ref.nonzeroPages(); got < least {
				t.Fatalf("seed %d step %d: %d pages resident, fewer than the %d holding data", seed, step, got, least)
			}
		}
		if !slices.Equal(m.Snapshot(), ref[:]) {
			t.Fatalf("seed %d: final Snapshot differs", seed)
		}
	}
}

// TestZeroStoresAllocateNothing pins the page economy: zeros stored
// anywhere, one at a time or in blocks, leave memory with no pages.
func TestZeroStoresAllocateNothing(t *testing.T) {
	m := New()
	m.Store(0x1234, 0)
	m.StoreBlock(0xFF00, make([]Word, 3*pageWords))
	m.Clear(0, Words)
	m.Restore(make([]Word, Words))
	if n := m.Resident(); n != 0 {
		t.Fatalf("%d pages resident after storing only zeros", n)
	}
}

// loadSink keeps BenchmarkLoadStore's loads from being optimized away.
var loadSink Word

// BenchmarkLoadStore reports the host cost of the emulator's word access,
// one store and one load, over a working set of a few resident pages.
func BenchmarkLoadStore(b *testing.B) {
	m := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := Addr((i * 7) & 0x3FF)
		m.Store(a, Word(i)|1)
		loadSink += m.Load(a ^ 0x155)
	}
}
