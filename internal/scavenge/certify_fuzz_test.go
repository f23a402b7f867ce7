package scavenge

import (
	"errors"
	"fmt"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/fsck"
	"altoos/internal/sim"
)

// certifyPack builds the fuzz target's pack: a 192-sector Diablo31 holding
// a root directory, a subdirectory and a few files of different lengths,
// one of them entered in the subdirectory. Most of the pack's sectors are
// never written after format.
func certifyPack(t *testing.T) *disk.Drive {
	t.Helper()
	g := disk.Diablo31()
	g.Cylinders = 8
	d, err := disk.NewDrive(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		t.Fatal(err)
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := dir.Create(fs, root, "sub")
	if err != nil {
		t.Fatal(err)
	}
	for i, pages := range []int{0, 1, 3} {
		name := fmt.Sprintf("file-%d", i)
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for pn := 1; pn <= pages; pn++ {
			p := pageOf(disk.Word(i*100 + pn))
			length := disk.PageBytes
			if pn == pages {
				length = 100 // a partial last page
			}
			if err := f.WritePage(disk.Word(pn), &p, length); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		in := root
		if i == 2 {
			in = sub
		}
		if err := in.Insert(name, f.FN()); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	return d
}

// damageRecord is the length of one damage record in the fuzz input.
const damageRecord = 6

// damage applies the fuzz input to the pack as a sequence of records of
// six bytes: a kind, a sector address (two bytes, reduced modulo the pack),
// a word index, and a 16-bit value. Each record is damage outside the
// label-checked write path, the kind §3.5 says the Scavenger must survive:
// a label or value word overwritten, a label replaced by the free or bad
// pattern or by a copy of another sector's label, a sector turned
// unreadable, or bits flipped. Addresses span the whole pack, so pristine
// sectors get hit as well as written ones.
func damage(d *disk.Drive, raw []byte) {
	n := d.Geometry().NSectors()
	for len(raw) >= damageRecord {
		kind, idx := raw[0], int(raw[3])
		addr := disk.VDA((int(raw[1])<<8 | int(raw[2])) % n)
		val := disk.Word(raw[4])<<8 | disk.Word(raw[5])
		raw = raw[damageRecord:]
		lbl, _ := d.PeekLabel(addr)
		switch kind % 8 {
		case 0:
			lbl[idx%disk.LabelWords] = val
			d.ZapLabel(addr, lbl)
		case 1:
			var v [disk.PageWords]disk.Word
			if err := d.Do(&disk.Op{Addr: addr, Value: disk.Read, ValueData: &v}); err == nil {
				v[idx%disk.PageWords] = val
				d.ZapValue(addr, v)
			}
		case 2:
			d.ZapLabel(addr, disk.FreeLabelWords())
		case 3:
			d.ZapLabel(addr, disk.BadLabelWords())
		case 4:
			other, _ := d.PeekLabel(disk.VDA(int(val) % n))
			d.ZapLabel(addr, other)
		case 5:
			d.MarkBad(addr)
		case 6:
			d.CorruptLabel(addr, sim.NewRand(uint64(val)))
		case 7:
			d.CorruptValue(addr, sim.NewRand(uint64(val)))
		}
	}
}

// FuzzScavengeCertifies states §3.5's promise as a property: whatever
// damage strikes labels and values, the Scavenger rebuilds a file system
// that fsck certifies with no violations. The one exception is an
// unreadable descriptor sector, which the Scavenger must refuse. The seed
// corpus under
// testdata/fuzz replays in every go test run; go test -fuzz
// FuzzScavengeCertifies explores further.
func FuzzScavengeCertifies(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 40, 4, 0, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = raw[:min(len(raw), 32*damageRecord)]
		d := certifyPack(t)
		damage(d, raw)
		if _, _, err := Run(d); err != nil {
			// Mount reads the file system from one fixed sector; when that
			// sector cannot be read, no repair can make the pack mount,
			// and refusing is the Scavenger's only right answer.
			var v [disk.PageWords]disk.Word
			if errors.Is(d.Do(&disk.Op{Addr: file.DescLeaderVDA, Value: disk.Read, ValueData: &v}), disk.ErrBadSector) {
				return
			}
			t.Fatalf("scavenge: %v", err)
		}
		rep, err := fsck.Check(d)
		if err != nil {
			t.Fatalf("fsck: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("fsck after scavenge: %v", rep.Strings())
		}
	})
}
