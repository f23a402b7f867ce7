package disk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"altoos/internal/sim"
)

func newTestDrive(tb testing.TB) *Drive {
	tb.Helper()
	d, err := NewDrive(Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func testLabel(pn Word) Label {
	return Label{FID: FirstUserFID, Version: 1, PageNum: pn, Length: PageBytes, Next: NilVDA, Prev: NilVDA}
}

func fill(v *[PageWords]Word, seed Word) {
	for i := range v {
		v[i] = seed + Word(i)
	}
}

func TestFreshPackIsAllFree(t *testing.T) {
	d := newTestDrive(t)
	for _, a := range []VDA{0, 1, 100, VDA(d.Geometry().NSectors() - 1)} {
		lbl, err := ReadAnyLabel(d, a)
		if err != nil {
			t.Fatalf("ReadAnyLabel(%d): %v", a, err)
		}
		if !IsFreeLabel(lbl) {
			t.Errorf("sector %d not free after format: %v", a, lbl)
		}
	}
}

func TestAllocateWriteReadFree(t *testing.T) {
	d := newTestDrive(t)
	lbl := testLabel(0)
	var v, got [PageWords]Word
	fill(&v, 0x100)

	if err := Allocate(d, 7, lbl, &v); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := ReadValue(d, 7, lbl, &got); err != nil {
		t.Fatalf("ReadValue: %v", err)
	}
	if got != v {
		t.Fatal("read back wrong value")
	}

	fill(&v, 0x200)
	if err := WriteValue(d, 7, lbl, &v); err != nil {
		t.Fatalf("WriteValue: %v", err)
	}
	if err := ReadValue(d, 7, lbl, &got); err != nil {
		t.Fatalf("ReadValue after rewrite: %v", err)
	}
	if got != v {
		t.Fatal("rewrite not visible")
	}

	if err := Free(d, 7, lbl); err != nil {
		t.Fatalf("Free: %v", err)
	}
	raw, err := ReadAnyLabel(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !IsFreeLabel(raw) {
		t.Fatal("label not free after Free")
	}
}

func TestDoubleAllocateFailsCheck(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	if err := Allocate(d, 3, testLabel(0), &v); err != nil {
		t.Fatal(err)
	}
	err := Allocate(d, 3, testLabel(1), &v)
	if !IsCheck(err) {
		t.Fatalf("second Allocate: got %v, want check failure", err)
	}
}

func TestStaleNameRejected(t *testing.T) {
	// The heart of §3.3: any attempt to use a page under the wrong full name
	// fails the label check and writes nothing.
	d := newTestDrive(t)
	right := testLabel(0)
	var v [PageWords]Word
	fill(&v, 1)
	if err := Allocate(d, 9, right, &v); err != nil {
		t.Fatal(err)
	}

	wrongFID := right
	wrongFID.FID++
	wrongVer := right
	wrongVer.Version++
	wrongPN := right
	wrongPN.PageNum++

	var junk [PageWords]Word
	fill(&junk, 0x7777)
	for name, wrong := range map[string]Label{"fid": wrongFID, "version": wrongVer, "page": wrongPN} {
		if err := WriteValue(d, 9, wrong, &junk); !IsCheck(err) {
			t.Errorf("write with wrong %s: got %v, want check failure", name, err)
		}
	}

	var got [PageWords]Word
	if err := ReadValue(d, 9, right, &got); err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatal("rejected writes still damaged the value")
	}
}

func TestFreedPageUnusableUnderOldName(t *testing.T) {
	d := newTestDrive(t)
	lbl := testLabel(0)
	var v [PageWords]Word
	if err := Allocate(d, 11, lbl, &v); err != nil {
		t.Fatal(err)
	}
	if err := Free(d, 11, lbl); err != nil {
		t.Fatal(err)
	}
	if err := ReadValue(d, 11, lbl, &v); !IsCheck(err) {
		t.Fatalf("read of freed page under old name: got %v, want check failure", err)
	}
}

func TestCheckWildcardReadsLinks(t *testing.T) {
	d := newTestDrive(t)
	lbl := testLabel(4)
	lbl.Next = 42
	lbl.Prev = 17
	lbl.Length = 100
	var v [PageWords]Word
	if err := Allocate(d, 20, lbl, &v); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabel(d, 20, lbl.FV(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Next != 42 || got.Prev != 17 || got.Length != 100 {
		t.Errorf("wildcard check did not fill hints: %+v", got)
	}
}

func TestCheckAbortsBeforeWrite(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	fill(&v, 5)
	if err := Allocate(d, 30, testLabel(0), &v); err != nil {
		t.Fatal(err)
	}
	// Single op: check a wrong label, then write the value. The check fails,
	// so the write must not happen.
	bad := testLabel(9).Words()
	var junk [PageWords]Word
	err := d.Do(&Op{Addr: 30, Label: Check, LabelData: &bad, Value: Write, ValueData: &junk})
	if !IsCheck(err) {
		t.Fatalf("got %v, want check failure", err)
	}
	var got [PageWords]Word
	if err := ReadValue(d, 30, testLabel(0), &got); err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatal("value written despite failed check")
	}
}

func TestWriteMustContinueThroughSector(t *testing.T) {
	d := newTestDrive(t)
	var lbl [LabelWords]Word
	var v [PageWords]Word
	// Label write with value read is illegal: a write must continue.
	err := d.Do(&Op{Addr: 0, Label: Write, LabelData: &lbl, Value: Read, ValueData: &v})
	if !errors.Is(err, ErrBadOp) {
		t.Fatalf("got %v, want ErrBadOp", err)
	}
	// Label write with value none is equally illegal.
	err = d.Do(&Op{Addr: 0, Label: Write, LabelData: &lbl})
	if !errors.Is(err, ErrBadOp) {
		t.Fatalf("got %v, want ErrBadOp", err)
	}
	// Value write alone is fine (write begins at the last part).
	free := FreeLabelWords()
	if err := d.Do(&Op{Addr: 0, Label: Check, LabelData: &free, Value: Write, ValueData: &v}); err != nil {
		t.Fatalf("check+write value: %v", err)
	}
}

func TestActionWithoutBufferRejected(t *testing.T) {
	d := newTestDrive(t)
	if err := d.Do(&Op{Addr: 0, Label: Read}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("got %v, want ErrBadOp", err)
	}
}

func TestAddressOutOfRange(t *testing.T) {
	d := newTestDrive(t)
	var lbl [LabelWords]Word
	err := d.Do(&Op{Addr: VDA(d.Geometry().NSectors()), Label: Read, LabelData: &lbl})
	if !errors.Is(err, ErrAddress) {
		t.Fatalf("got %v, want ErrAddress", err)
	}
}

func TestHeaderCheckCatchesWrongPack(t *testing.T) {
	d := newTestDrive(t)
	hdr := Header{Pack: 99, Addr: 0}.Words() // drive was formatted as pack 1
	err := d.Do(&Op{Addr: 0, Header: Check, HeaderData: &hdr})
	if !IsCheck(err) {
		t.Fatalf("got %v, want check failure on pack number", err)
	}
}

func TestBadSector(t *testing.T) {
	d := newTestDrive(t)
	d.MarkBad(5)
	var lbl [LabelWords]Word
	err := d.Do(&Op{Addr: 5, Label: Read, LabelData: &lbl})
	if !errors.Is(err, ErrBadSector) {
		t.Fatalf("got %v, want ErrBadSector", err)
	}
	d.HealBad(5)
	if err := d.Do(&Op{Addr: 5, Label: Read, LabelData: &lbl}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestCrashInjection(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	// Allocate performs two write actions (label, value). Crash after the
	// first: the label lands but the value write is lost.
	d.CrashAfterWrites(1)
	err := Allocate(d, 2, testLabel(0), &v)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("got %v, want ErrCrashed", err)
	}
	if !d.Crashed() {
		t.Fatal("drive should report crashed")
	}
	// After "reboot" the torn state is visible: label present.
	d.ClearCrash()
	raw, err := ReadAnyLabel(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if IsFreeLabel(raw) {
		t.Fatal("label write before crash was lost")
	}
}

func TestTimingSequentialTrackReadIsOneRevolution(t *testing.T) {
	// Reading the 12 labels of one track in address order should take about
	// one revolution plus initial latency — this is what makes the Scavenger
	// sweep fast.
	d := newTestDrive(t)
	g := d.Geometry()
	before := d.Clock().Now()
	for s := 0; s < g.SectorsPerTrack; s++ {
		if _, err := ReadAnyLabel(d, VDA(s)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := d.Clock().Now() - before
	if elapsed > 2*g.RevTime {
		t.Errorf("track label sweep took %v, want <= %v", elapsed, 2*g.RevTime)
	}
}

func TestTimingAllocCostsARevolution(t *testing.T) {
	// §3.3: "This scheme costs a disk revolution each time a page is
	// allocated or freed ... On any other write the label is checked, at no
	// cost in time."
	// Averaged over many sectors at random rotational phases, an allocation
	// (check-free pass, then label-write pass on the same sector) costs one
	// revolution more than an ordinary data write (label check and value
	// write in a single pass).
	d := newTestDrive(t)
	g := d.Geometry()
	r := sim.NewRand(1)
	const n = 200
	addrs := make([]VDA, n)
	for i := range addrs {
		addrs[i] = VDA(r.Intn(g.NSectors()))
	}

	var v [PageWords]Word
	t0 := d.Clock().Now()
	for i, a := range addrs {
		if err := Allocate(d, a, testLabel(Word(i)), &v); err != nil {
			if IsCheck(err) {
				continue // duplicate random address, already allocated
			}
			t.Fatal(err)
		}
	}
	alloc := (d.Clock().Now() - t0) / n

	seen := map[VDA]bool{}
	var m time.Duration
	writes := 0
	for i, a := range addrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		w := d.Clock().Now()
		if err := WriteValue(d, a, testLabel(Word(i)), &v); err != nil && !IsCheck(err) {
			t.Fatal(err)
		}
		m += d.Clock().Now() - w
		writes++
	}
	plain := m / time.Duration(writes)

	if delta := alloc - plain; delta < g.RevTime*7/10 || delta > g.RevTime*13/10 {
		t.Errorf("allocation overhead = %v, want about one revolution (%v); plain=%v alloc=%v",
			delta, g.RevTime, plain, alloc)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	if err := Allocate(d, 1, testLabel(0), &v); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Ops == 0 || st.Writes == 0 || st.Checks == 0 || st.Busy == 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
	if st.Revolutions(d.Geometry()) <= 0 {
		t.Error("Revolutions() should be positive")
	}
	d.ResetStats()
	if st := d.Stats(); st.Ops != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestImageRoundTrip(t *testing.T) {
	d := newTestDrive(t)
	lbl := testLabel(0)
	var v [PageWords]Word
	fill(&v, 0xABC)
	if err := Allocate(d, 123, lbl, &v); err != nil {
		t.Fatal(err)
	}
	d.MarkBad(200)

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	d2, err := LoadImage(&buf, sim.NewClock())
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	if d2.Geometry().Name != d.Geometry().Name || d2.Pack() != d.Pack() {
		t.Error("geometry or pack lost in round trip")
	}
	var got [PageWords]Word
	if err := ReadValue(d2, 123, lbl, &got); err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Error("sector value lost in round trip")
	}
	var l [LabelWords]Word
	if err := d2.Do(&Op{Addr: 200, Label: Read, LabelData: &l}); !errors.Is(err, ErrBadSector) {
		t.Error("bad-sector flag lost in round trip")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(bytes.NewReader([]byte("not a pack")), nil); !errors.Is(err, ErrImage) {
		t.Fatalf("got %v, want ErrImage", err)
	}
}

func TestRelabel(t *testing.T) {
	d := newTestDrive(t)
	lbl := testLabel(0)
	var v [PageWords]Word
	fill(&v, 3)
	if err := Allocate(d, 50, lbl, &v); err != nil {
		t.Fatal(err)
	}
	newLbl := lbl
	newLbl.Length = 10
	newLbl.Next = 51
	if err := Relabel(d, 50, lbl, newLbl, &v); err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	got, err := ReadLabel(d, 50, lbl.FV(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Length != 10 || got.Next != 51 {
		t.Errorf("relabel not applied: %+v", got)
	}
	// Relabel with a stale old label must fail.
	if err := Relabel(d, 50, lbl, newLbl, &v); !IsCheck(err) {
		t.Fatalf("stale relabel: got %v, want check failure", err)
	}
}

func TestSeekAdvancesClockMoreThanNoSeek(t *testing.T) {
	d := newTestDrive(t)
	g := d.Geometry()
	// Two reads on the same cylinder vs a far cylinder.
	lastCyl := g.Address(g.Cylinders-1, 0, 0)

	t0 := d.Clock().Now()
	if _, err := ReadAnyLabel(d, 0); err != nil {
		t.Fatal(err)
	}
	near := d.Clock().Now() - t0

	t1 := d.Clock().Now()
	if _, err := ReadAnyLabel(d, lastCyl); err != nil {
		t.Fatal(err)
	}
	far := d.Clock().Now() - t1

	if far <= near {
		t.Errorf("long seek (%v) not slower than no seek (%v)", far, near)
	}
	if far < g.SeekTime(g.Cylinders-1) {
		t.Errorf("long seek %v less than pure seek time %v", far, g.SeekTime(g.Cylinders-1))
	}
}

func TestDriveTimeIsDeterministic(t *testing.T) {
	run := func() time.Duration {
		d, err := NewDrive(Diablo31(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var v [PageWords]Word
		for i := 0; i < 20; i++ {
			if err := Allocate(d, VDA(i*37%100), testLabel(Word(i)), &v); err != nil {
				t.Fatal(err)
			}
		}
		return d.Clock().Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same op sequence took %v then %v", a, b)
	}
}
