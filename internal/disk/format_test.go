package disk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"altoos/internal/trace"
)

// wantFormatted reports the first way d differs from a freshly formatted
// pack as the drive wrote one sector at a time: header {pack, address},
// free label, all-ones value, good sector, and a value checksum of crc.
func wantFormatted(d *Drive, crc Word) error {
	if len(d.sectors) != d.geom.NSectors() {
		return fmt.Errorf("%d sectors, geometry has %d", len(d.sectors), d.geom.NSectors())
	}
	for i := range d.sectors {
		s := &d.sectors[i]
		switch {
		case s.header != Header{Pack: d.pack, Addr: VDA(i)}.Words():
			return fmt.Errorf("sector %d header %v", i, s.header)
		case s.label != freeLabelWords:
			return fmt.Errorf("sector %d label %v", i, s.label)
		case s.value != onesValue:
			return fmt.Errorf("sector %d value is not the free pattern", i)
		case s.vcrc != crc:
			return fmt.Errorf("sector %d checksum %#04x, want %#04x", i, s.vcrc, crc)
		case s.bad:
			return fmt.Errorf("sector %d marked bad", i)
		}
	}
	return nil
}

// TestNewDriveFormat pins format-by-copy to the per-sector format it
// replaced, on packs smaller than, equal to and larger than the template,
// for the pack numbers at both ends of the word.
func TestNewDriveFormat(t *testing.T) {
	explorer := Geometry{Name: "Explorer48", Cylinders: 24, Heads: 2, SectorsPerTrack: 12,
		RevTime: 40 * time.Millisecond, SeekSettle: 15 * time.Millisecond, SeekPerCyl: 560 * time.Microsecond}
	if Trident().NSectors() <= len(formatTemplate) {
		t.Fatalf("Trident (%d sectors) fits the %d-sector template; the piecewise path goes untested",
			Trident().NSectors(), len(formatTemplate))
	}
	for _, g := range []Geometry{Diablo31(), Trident(), explorer} {
		for _, pack := range []Word{0, 1, 0xFFFF} {
			d, err := NewDrive(g, pack, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := wantFormatted(d, 0); err != nil {
				t.Errorf("%s pack %d: %v", g.Name, pack, err)
			}
			d.SetRecorder(trace.New(16))
			if err := wantFormatted(d, valueCRC(onesValue[:])); err != nil {
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
// and requires a second fresh drive, and the template both were copied
// from, to be untouched.
func TestNewDriveDoesNotAlias(t *testing.T) {
	a := newTestDrive(t)
	b := newTestDrive(t)
	hdr := Header{Pack: 1, Addr: 5}.Words()
	lbl := testLabel(1).Words()
	var val [PageWords]Word
	fill(&val, 0x1234)
	if err := a.Do(&Op{Addr: 5, Header: Write, HeaderData: &hdr, Label: Write, LabelData: &lbl, Value: Write, ValueData: &val}); err != nil {
		t.Fatal(err)
	}
	if a.sectors[5].value != val {
		t.Fatal("the write did not land")
	}
	if err := wantFormatted(b, 0); err != nil {
		t.Errorf("second drive: %v", err)
	}
	for i := range formatTemplate {
		if s := &formatTemplate[i]; s.label != freeLabelWords || s.value != onesValue || s.header != [HeaderWords]Word{} {
			t.Fatalf("template sector %d changed", i)
		}
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
