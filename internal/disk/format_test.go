package disk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"altoos/internal/trace"
)

// wantFormatted reports the first way d differs from a freshly formatted
// pack, read through the drive's public paths: every sector reads back with
// header {pack, address}, the free label and the all-ones value, none is
// bad, and PeekVCRC reports the all-ones checksum once checksums are live
// and nothing before.
func wantFormatted(d *Drive, live bool) error {
	for i := 0; i < d.Geometry().NSectors(); i++ {
		addr := VDA(i)
		var hdr [HeaderWords]Word
		var lbl [LabelWords]Word
		var val [PageWords]Word
		err := d.Do(&Op{Addr: addr, Header: Read, HeaderData: &hdr, Label: Read, LabelData: &lbl, Value: Read, ValueData: &val})
		crc, ok := d.PeekVCRC(addr)
		switch {
		case err != nil:
			return fmt.Errorf("sector %d: %v", i, err)
		case hdr != Header{Pack: d.Pack(), Addr: addr}.Words():
			return fmt.Errorf("sector %d header %v", i, hdr)
		case lbl != freeLabelWords:
			return fmt.Errorf("sector %d label %v", i, lbl)
		case val != onesValue:
			return fmt.Errorf("sector %d value is not the free pattern", i)
		case ok != live || (live && crc != valueCRC(onesValue[:])):
			return fmt.Errorf("sector %d checksum %#04x (live %v), want live %v", i, crc, ok, live)
		}
	}
	return nil
}

// TestNewDriveFormat pins a fresh pack to the per-sector format the drive
// once wrote, on packs of three sizes, for the pack numbers at both ends of
// the word, before and after checksums go live.
func TestNewDriveFormat(t *testing.T) {
	explorer := Geometry{Name: "Explorer48", Cylinders: 24, Heads: 2, SectorsPerTrack: 12,
		RevTime: 40 * time.Millisecond, SeekSettle: 15 * time.Millisecond, SeekPerCyl: 560 * time.Microsecond}
	for _, g := range []Geometry{Diablo31(), Trident(), explorer} {
		for _, pack := range []Word{0, 1, 0xFFFF} {
			d, err := NewDrive(g, pack, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := wantFormatted(d, false); err != nil {
				t.Errorf("%s pack %d: %v", g.Name, pack, err)
			}
			d.SetRecorder(trace.New(16))
			if err := wantFormatted(d, true); err != nil {
				t.Errorf("%s pack %d after SetRecorder: %v", g.Name, pack, err)
			}
		}
	}
}

// TestNewDriveImageUnchanged pins a fresh Diablo31's saved image, byte for
// byte, to the image the per-sector format produced.
func TestNewDriveImageUnchanged(t *testing.T) {
	d := newTestDrive(t)
	var b bytes.Buffer
	if err := d.SaveImage(&b); err != nil {
		t.Fatal(err)
	}
	const want = "f721b0c084a38beb0c7b98e6a13dcbf9b1b4d4447e0f3d9468988995a5e8bdf2"
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != want {
		t.Fatalf("fresh Diablo31 image (%d bytes) hashes to %s, want %s", b.Len(), got, want)
	}
}

// TestNewDriveDoesNotAlias writes every part of a sector on one fresh drive
// and requires the write to land there only: the written drive's neighbours
// and a second fresh drive still read as formatted. A buffer filled by
// reading a pristine sector is the caller's own: scribbling on it changes
// nothing on the pack.
func TestNewDriveDoesNotAlias(t *testing.T) {
	a := newTestDrive(t)
	b := newTestDrive(t)
	var scribbled [PageWords]Word
	if err := a.Do(&Op{Addr: 4, Value: Read, ValueData: &scribbled}); err != nil {
		t.Fatal(err)
	}
	fill(&scribbled, 0x4444)
	hdr := Header{Pack: 1, Addr: 5}.Words()
	lbl := testLabel(1).Words()
	var val [PageWords]Word
	fill(&val, 0x1234)
	if err := a.Do(&Op{Addr: 5, Header: Write, HeaderData: &hdr, Label: Write, LabelData: &lbl, Value: Write, ValueData: &val}); err != nil {
		t.Fatal(err)
	}
	var got [PageWords]Word
	if err := ReadValue(a, 5, testLabel(1), &got); err != nil || got != val {
		t.Fatalf("the write did not land: %v", err)
	}
	for _, addr := range []VDA{4, 6} {
		if err := a.Do(&Op{Addr: addr, Value: Read, ValueData: &got}); err != nil || got != onesValue {
			t.Errorf("written drive's sector %d no longer reads as formatted: %v", addr, err)
		}
	}
	if err := wantFormatted(b, false); err != nil {
		t.Errorf("second drive: %v", err)
	}
}

// TestNewDriveAllocation pins what formatting a Diablo31 pack allocates: a
// slot table and the drive itself, no sector storage.
func TestNewDriveAllocation(t *testing.T) {
	const pinned = 16 << 10
	const rounds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := NewDrive(Diablo31(), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > pinned {
		t.Fatalf("NewDrive(Diablo31) allocates %d bytes, pinned at %d", per, pinned)
	}
}

// BenchmarkNewDrive reports the host cost of formatting a pack.
func BenchmarkNewDrive(b *testing.B) {
	mini := Diablo31()
	mini.Cylinders = 16
	for _, g := range []Geometry{mini, Diablo31()} {
		b.Run(fmt.Sprintf("%d-sectors", g.NSectors()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDrive(g, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
