package dir

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
)

// refLoad is the decoder every directory read went through before scan:
// read the pages in order and decode each entry, name included, into a
// slice. FuzzDirScan holds the scanner to it.
func refLoad(d *Directory) ([]Entry, error) {
	var entries []Entry
	var buf [disk.PageWords]disk.Word
	lastPN := d.f.LastPN()
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		n, err := d.f.ReadPage(pn, &buf)
		if err != nil {
			return nil, err
		}
		words := (n + 1) / 2
		i := 0
		for i < words {
			switch buf[i] {
			case endMark:
				return entries, nil
			case padMark:
				i = words
				continue
			}
			length := int(buf[i])
			if length < entryFixed+1 || i+length > words {
				return entries, fmt.Errorf("%w: entry length %d at page %d word %d", ErrFormat, length, pn, i)
			}
			nameLen := int(buf[i+5])
			if nameLen > 2*(length-entryFixed) {
				return entries, fmt.Errorf("%w: name length %d in %d-word entry", ErrFormat, nameLen, length)
			}
			nb := make([]byte, nameLen)
			for j := range nb {
				w := buf[i+entryFixed+j/2]
				if j%2 == 0 {
					nb[j] = byte(w >> 8)
				} else {
					nb[j] = byte(w)
				}
			}
			entries = append(entries, Entry{
				Name: string(nb),
				FN: file.FN{
					FV:     disk.FV{FID: disk.FID(buf[i+1])<<16 | disk.FID(buf[i+2]), Version: buf[i+3]},
					Leader: disk.VDA(buf[i+4]),
				},
			})
			i += length
		}
	}
	return entries, nil
}

// refLookup and refLookupFV are Load-then-search: the first match wins.
func refLookup(d *Directory, name string) (file.FN, error) {
	entries, err := refLoad(d)
	if err != nil {
		return file.FN{}, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e.FN, nil
		}
	}
	return file.FN{}, fmt.Errorf("%w: %q", ErrNotFound, name)
}

func refLookupFV(d *Directory, fv disk.FV) (file.FN, error) {
	entries, err := refLoad(d)
	if err != nil {
		return file.FN{}, err
	}
	for _, e := range entries {
		if e.FN.FV == fv {
			return e.FN, nil
		}
	}
	return file.FN{}, fmt.Errorf("%w: %v", ErrNotFound, fv)
}

// refWalk is Walk with its children enumerated by refLoad.
func refWalk(fs *file.FS, start file.FN, visit func(*Directory) error) error {
	seen := map[disk.FV]bool{}
	queue := []file.FN{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn.FV] {
			continue
		}
		seen[fn.FV] = true
		d, err := Open(fs, fn)
		if err != nil {
			continue
		}
		if err := visit(d); err != nil {
			return err
		}
		entries, err := refLoad(d)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.FN.FV.FID.IsDirectory() && !seen[e.FN.FV] {
				queue = append(queue, e.FN)
			}
		}
	}
	return nil
}

// scanFixture builds a small pack holding a root directory and a
// directory "fuzz.dir" entered in it, then overwrites fuzz.dir's pages with
// raw (big-endian words): a full page per 512 bytes, the rest as the
// partial last page, whose byte length may be odd.
func scanFixture(t *testing.T, raw []byte) (*file.FS, *Directory) {
	t.Helper()
	g := disk.Diablo31()
	g.Cylinders = 16
	drv, err := disk.NewDrive(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(drv)
	if err != nil {
		t.Fatal(err)
	}
	root, err := InitRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(fs, root, "fuzz.dir")
	if err != nil {
		t.Fatal(err)
	}
	for pn := disk.Word(1); ; pn++ {
		n := min(len(raw), disk.PageBytes)
		var page [disk.PageWords]disk.Word
		for j := 0; j < n; j++ {
			if j%2 == 0 {
				page[j/2] |= disk.Word(raw[j]) << 8
			} else {
				page[j/2] |= disk.Word(raw[j])
			}
		}
		raw = raw[n:]
		if err := d.File().WritePage(pn, &page, n); err != nil {
			t.Fatal(err)
		}
		if n < disk.PageBytes {
			return fs, d
		}
	}
}

// entryBytes serializes entries the way store lays out one page, as
// big-endian bytes, for seeding the fuzzer with well-formed directories.
func entryBytes(entries ...Entry) []byte {
	var page [disk.PageWords]disk.Word
	used := 0
	for _, e := range entries {
		used = putEntry(&page, used, e)
	}
	out := make([]byte, 0, 2*used+2)
	for _, w := range page[:used+1] { // the end mark too
		out = append(out, byte(w>>8), byte(w))
	}
	return out
}

// FuzzDirScan writes arbitrary words into a directory file and holds the
// scanner to the decoder it replaced. Two identical packs are built; one
// runs the reference Load-then-search, the other the scanner. Lookup and
// LookupFV, for the fuzzed name and FV and for the first few entries the
// reference decodes, must return the same full name and the same error,
// and leave the same simulated clock; Load must return the same entries;
// Walk from the directory must open the same directories in the same
// order, which it does only if it queued the same children. The seed
// corpus under testdata/fuzz replays in every go test run; go test -fuzz
// FuzzDirScan explores further.
func FuzzDirScan(f *testing.F) {
	fn := file.FN{FV: disk.FV{FID: 0x8000_0005, Version: 1}, Leader: 40}
	f.Add(entryBytes(Entry{Name: "a", FN: fn}, Entry{Name: "bb", FN: file.FN{FV: disk.FV{FID: 9, Version: 2}, Leader: 41}}), "bb", uint32(fn.FV.FID), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, name string, fid uint32, version uint16) {
		raw = raw[:min(len(raw), 3*disk.PageBytes)]
		refFS, ref := scanFixture(t, raw)
		gotFS, got := scanFixture(t, raw)
		clock := func(fs *file.FS) int64 { return int64(fs.Device().Clock().Now()) }
		same := func(what string, refFN file.FN, refErr error, gotFN file.FN, gotErr error) {
			t.Helper()
			if refFN != gotFN || fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
				t.Fatalf("%s: scanner gives (%v, %v), reference (%v, %v)", what, gotFN, gotErr, refFN, refErr)
			}
			if r, g := clock(refFS), clock(gotFS); r != g {
				t.Fatalf("%s: scanner leaves the clock at %d, reference at %d", what, g, r)
			}
		}

		entries, refErr := refLoad(ref)
		loaded, gotErr := got.Load()
		if !reflect.DeepEqual(entries, loaded) || fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
			t.Fatalf("Load gives (%v, %v), reference (%v, %v)", loaded, gotErr, entries, refErr)
		}
		same("Load", file.FN{}, nil, file.FN{}, nil)

		fv := disk.FV{FID: disk.FID(fid), Version: version}
		rfn, rerr := refLookup(ref, name)
		gfn, gerr := got.Lookup(name)
		same(fmt.Sprintf("Lookup(%q)", name), rfn, rerr, gfn, gerr)
		rfn, rerr = refLookupFV(ref, fv)
		gfn, gerr = got.LookupFV(fv)
		same(fmt.Sprintf("LookupFV(%v)", fv), rfn, rerr, gfn, gerr)
		for _, e := range entries[:min(len(entries), 4)] {
			rfn, rerr = refLookup(ref, e.Name)
			gfn, gerr = got.Lookup(e.Name)
			same(fmt.Sprintf("Lookup(%q)", e.Name), rfn, rerr, gfn, gerr)
			rfn, rerr = refLookupFV(ref, e.FN.FV)
			gfn, gerr = got.LookupFV(e.FN.FV)
			same(fmt.Sprintf("LookupFV(%v)", e.FN.FV), rfn, rerr, gfn, gerr)
		}

		var refSeen, gotSeen []disk.FV
		rerr = refWalk(refFS, ref.FN(), func(d *Directory) error { refSeen = append(refSeen, d.FN().FV); return nil })
		gerr = Walk(gotFS, got.FN(), func(d *Directory) error { gotSeen = append(gotSeen, d.FN().FV); return nil })
		if !reflect.DeepEqual(refSeen, gotSeen) {
			t.Fatalf("Walk opens %v, reference %v", gotSeen, refSeen)
		}
		same("Walk", file.FN{}, rerr, file.FN{}, gerr)
	})
}

// hundredEntryRoot returns a root directory of 100 entries: the two
// standard ones and file02..file99, spanning several pages.
func hundredEntryRoot(tb testing.TB) *Directory {
	tb.Helper()
	drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := file.Format(drv)
	if err != nil {
		tb.Fatal(err)
	}
	root, err := InitRoot(fs)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 2; i < 100; i++ {
		fn := file.FN{FV: disk.FV{FID: disk.FID(0x100 + i), Version: 1}, Leader: disk.VDA(i)}
		if err := root.Insert(fmt.Sprintf("file%02d", i), fn); err != nil {
			tb.Fatal(err)
		}
	}
	if root.File().LastPN() < 2 {
		tb.Fatalf("100 entries fit one page; the lookup would not cross pages")
	}
	return root
}

// BenchmarkLookup reports the host cost of a hit on the last entry of a
// 100-entry root directory: every page read and every entry scanned.
func BenchmarkLookup(b *testing.B) {
	root := hundredEntryRoot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Lookup("file99"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLookupAllocatesNothing pins the scanner's steady state: a hit in a
// 100-entry root reads its pages into the directory's own buffer and
// compares names in place, so it allocates nothing on the host.
func TestLookupAllocatesNothing(t *testing.T) {
	root := hundredEntryRoot(t)
	want := file.FN{FV: disk.FV{FID: 0x100 + 99, Version: 1}, Leader: 99}
	allocs := testing.AllocsPerRun(100, func() {
		if fn, err := root.Lookup("file99"); err != nil || fn != want {
			t.Fatalf("Lookup(file99) = %v, %v; want %v", fn, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("a directory hit allocates %v times, want 0", allocs)
	}
	if _, err := root.Lookup("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup(nosuch) = %v, want ErrNotFound", err)
	}
}
