package disk

import (
	"bytes"
	"fmt"
	"testing"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// The copy-on-write drive is checked against a reference that stores the
// whole pack: every sector materialized up front, in address order, with
// contents the test writes from the format's definition (header {pack,
// address}, free label, all-ones value). Both run one seeded random
// sequence of operations and fault injections, and every observable —
// errors, buffers, clock, statistics, crash state, every label and every
// checksum — must agree after each step. The two share the operation logic;
// what differs is exactly the pristine-sector machinery: the scratch view,
// materialization, the checksum rule, Rot's skip and the image codec.

// newEagerDrive returns the reference: a drive whose every sector already
// has its own storage, filled from the format's definition.
func newEagerDrive(tb testing.TB, g Geometry, pack Word) *Drive {
	tb.Helper()
	d, err := NewDrive(g, pack, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range d.slot {
		*d.mutable(VDA(i)) = sector{header: Header{Pack: pack, Addr: VDA(i)}.Words(), label: freeLabelWords, value: onesValue}
	}
	return d
}

// cowGen draws random operations against the reference's current contents,
// so checks pass often enough for writes behind them to land.
type cowGen struct {
	r   *sim.Rand
	ref *Drive
	n   int
}

// action draws a non-write action, or Write from part first onward.
func (g *cowGen) action(part, first int) Action {
	if part >= first {
		return Write
	}
	return Action(g.r.Intn(3)) // None, Read or Check
}

// pattern turns the disk's current words into a check pattern: some words
// wildcarded, and now and then one word wrong.
func (g *cowGen) pattern(w []Word) {
	for i := range w {
		if g.r.Bool(1, 4) {
			w[i] = 0
		}
	}
	if g.r.Bool(1, 5) {
		w[g.r.Intn(len(w))] ^= 0x0100
	}
}

func (g *cowGen) labelWords() [LabelWords]Word {
	switch g.r.Intn(4) {
	case 0:
		return freeLabelWords
	case 1:
		return badLabelWords
	case 2:
		return testLabel(Word(g.r.Intn(4))).Words()
	}
	var w [LabelWords]Word
	for i := range w {
		w[i] = g.r.Word()
	}
	return w
}

func (g *cowGen) valueWords() [PageWords]Word {
	if g.r.Bool(1, 4) {
		return onesValue
	}
	var v [PageWords]Word
	fill(&v, g.r.Word())
	return v
}

func (g *cowGen) op() Op {
	r := g.r
	op := Op{Addr: VDA(r.Intn(g.n + 2))} // two addresses past the end
	cur, _ := g.ref.peek(op.Addr)
	first := min(r.Intn(6), 3) // the first written part; 3 writes nothing
	op.Header = g.action(0, first)
	op.Label = g.action(1, first)
	op.Value = g.action(2, first)

	hdr := cur.header
	switch op.Header {
	case Check:
		g.pattern(hdr[:])
	case Write:
		if r.Bool(1, 3) {
			hdr[1] ^= 1
		}
	}
	lbl := cur.label
	switch op.Label {
	case Check:
		g.pattern(lbl[:])
	case Write:
		lbl = g.labelWords()
	}
	val := cur.value
	switch op.Value {
	case Check:
		g.pattern(val[:])
	case Write:
		val = g.valueWords()
	}
	if op.Header != None {
		op.HeaderData = &hdr
	}
	if op.Label != None {
		op.LabelData = &lbl
	}
	if op.Value != None {
		op.ValueData = &val
	}
	if r.Bool(1, 30) {
		op.LabelData, op.Label = nil, Read // malformed: ErrBadOp
	}
	return op
}

// cloneOp deep-copies an operation's buffers, so each drive gets its own.
func cloneOp(op Op) Op {
	if op.HeaderData != nil {
		h := *op.HeaderData
		op.HeaderData = &h
	}
	if op.LabelData != nil {
		l := *op.LabelData
		op.LabelData = &l
	}
	if op.ValueData != nil {
		v := *op.ValueData
		op.ValueData = &v
	}
	return op
}

func sameOp(a, b *Op) bool {
	if a.Addr != b.Addr || a.Header != b.Header || a.Label != b.Label || a.Value != b.Value {
		return false
	}
	return (a.HeaderData == nil) == (b.HeaderData == nil) && (a.HeaderData == nil || *a.HeaderData == *b.HeaderData) &&
		(a.LabelData == nil) == (b.LabelData == nil) && (a.LabelData == nil || *a.LabelData == *b.LabelData) &&
		(a.ValueData == nil) == (b.ValueData == nil) && (a.ValueData == nil || *a.ValueData == *b.ValueData)
}

// sameDrives reports the first observable on which the two drives differ.
func sameDrives(cow, ref *Drive) error {
	if a, b := cow.Clock().Now(), ref.Clock().Now(); a != b {
		return fmt.Errorf("clock %v, reference %v", a, b)
	}
	if a, b := cow.Stats(), ref.Stats(); a != b {
		return fmt.Errorf("stats %+v, reference %+v", a, b)
	}
	if a, b := cow.Crashed(), ref.Crashed(); a != b {
		return fmt.Errorf("crashed %v, reference %v", a, b)
	}
	a1, a2 := cow.CrashAt()
	b1, b2 := ref.CrashAt()
	if a1 != b1 || a2 != b2 {
		return fmt.Errorf("crash at %d %v, reference %d %v", a1, a2, b1, b2)
	}
	for i := 0; i < len(ref.slot)+2; i++ {
		addr := VDA(i)
		la, oka := cow.PeekLabel(addr)
		lb, okb := ref.PeekLabel(addr)
		if la != lb || oka != okb {
			return fmt.Errorf("sector %d label %v %v, reference %v %v", i, la, oka, lb, okb)
		}
		ca, oka := cow.PeekVCRC(addr)
		cb, okb := ref.PeekVCRC(addr)
		if ca != cb || oka != okb {
			return fmt.Errorf("sector %d checksum %#04x %v, reference %#04x %v", i, ca, oka, cb, okb)
		}
	}
	return nil
}

func sameErrs(a, b []error) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			return false
		}
	}
	return true
}

// TestCopyOnWriteMatchesReference runs the differential sequence for
// several seeds on a 192-sector pack, small enough that steps keep hitting
// the same sectors.
func TestCopyOnWriteMatchesReference(t *testing.T) {
	g := Diablo31()
	g.Cylinders = 8
	const steps = 400
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cow, err := NewDrive(g, 7, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := newEagerDrive(t, g, 7)
			r := sim.NewRand(seed)
			gen := &cowGen{r: r, ref: ref, n: g.NSectors()}
			liveAt := r.Intn(steps)
			for step := 0; step < steps; step++ {
				what := runCOWStep(t, r, gen, cow, ref, step == liveAt)
				if err := sameDrives(cow, ref); err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
			}
			if cow.used >= len(cow.slot) {
				t.Fatalf("every sector materialized (%d); the sequence never exercised a pristine one", cow.used)
			}

			var a, b bytes.Buffer
			if err := cow.SaveImage(&a); err != nil {
				t.Fatal(err)
			}
			if err := ref.SaveImage(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("saved images differ")
			}
			loaded, err := LoadImage(bytes.NewReader(a.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			var c bytes.Buffer
			if err := loaded.SaveImage(&c); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), c.Bytes()) {
				t.Fatal("LoadImage then SaveImage does not round-trip the image")
			}
			if loaded.used > cow.used {
				t.Errorf("the loaded pack materialized %d sectors, more than the %d the original holds", loaded.used, cow.used)
			}
		})
	}
}

// runCOWStep applies one random step to both drives, failing the test if
// their direct results differ, and names the step.
func runCOWStep(t *testing.T, r *sim.Rand, gen *cowGen, cow, ref *Drive, goLive bool) string {
	t.Helper()
	if goLive {
		if r.Bool(1, 2) {
			cow.SetRecorder(trace.New(64))
			ref.SetRecorder(trace.New(64))
			return "SetRecorder"
		}
		cow.EnsureVCRC()
		ref.EnsureVCRC()
		return "EnsureVCRC"
	}
	addr := VDA(r.Intn(gen.n + 1))
	switch k := r.Intn(16); {
	case k < 7:
		op := gen.op()
		a, b := cloneOp(op), cloneOp(op)
		ea, eb := cow.Do(&a), ref.Do(&b)
		if fmt.Sprint(ea) != fmt.Sprint(eb) || !sameOp(&a, &b) {
			t.Fatalf("Do %+v: %v, reference %v", op, ea, eb)
		}
		return "Do"
	case k < 10:
		mode := ChainMode(r.Intn(2))
		n := 1 + r.Intn(6)
		a, b := make([]Op, n), make([]Op, n)
		for i := range a {
			op := gen.op()
			a[i], b[i] = cloneOp(op), cloneOp(op)
		}
		ea, eb := cow.DoChain(a, mode), ref.DoChain(b, mode)
		if !sameErrs(ea, eb) {
			t.Fatalf("DoChain %v: %v, reference %v", mode, ea, eb)
		}
		for i := range a {
			if !sameOp(&a[i], &b[i]) {
				t.Fatalf("DoChain %v: op %d buffers differ", mode, i)
			}
		}
		return "DoChain " + mode.String()
	case k == 10:
		if r.Bool(1, 2) {
			cow.MarkBad(addr)
			ref.MarkBad(addr)
			return "MarkBad"
		}
		cow.HealBad(addr)
		ref.HealBad(addr)
		return "HealBad"
	case k == 11:
		if r.Bool(1, 2) {
			w := gen.labelWords()
			cow.ZapLabel(addr, w)
			ref.ZapLabel(addr, w)
			return "ZapLabel"
		}
		v := gen.valueWords()
		cow.ZapValue(addr, v)
		ref.ZapValue(addr, v)
		return "ZapValue"
	case k == 12:
		seed := r.Uint64()
		if r.Bool(1, 2) {
			cow.CorruptLabel(addr, sim.NewRand(seed))
			ref.CorruptLabel(addr, sim.NewRand(seed))
			return "CorruptLabel"
		}
		cow.CorruptValue(addr, sim.NewRand(seed))
		ref.CorruptValue(addr, sim.NewRand(seed))
		return "CorruptValue"
	case k == 13:
		seed, n := r.Uint64(), 1+r.Intn(4)
		var eligible func(Label) bool
		if r.Bool(1, 2) {
			eligible = func(l Label) bool { return l.PageNum%2 == 0 }
		}
		a := cow.Rot(sim.NewRand(seed), n, eligible)
		b := ref.Rot(sim.NewRand(seed), n, eligible)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("Rot struck %v, reference %v", a, b)
		}
		return "Rot"
	case k == 14:
		torn := r.Bool(1, 2)
		n := int64(r.Intn(6))
		cow.SetTornCrash(torn)
		ref.SetTornCrash(torn)
		cow.CrashAfterWrites(n)
		ref.CrashAfterWrites(n)
		return fmt.Sprintf("CrashAfterWrites(%d) torn %v", n, torn)
	default:
		cow.ClearCrash()
		ref.ClearCrash()
		return "ClearCrash"
	}
}

// TestLateChecksumsCoverEarlierWrites pins the checksum bootstrap for
// sectors written before checksums went live: the first SetRecorder or
// EnsureVCRC must checksum them as they stand, so reading them back raises
// no mismatch, while a pristine neighbour carries the all-ones checksum.
func TestLateChecksumsCoverEarlierWrites(t *testing.T) {
	for _, live := range []string{"SetRecorder", "EnsureVCRC"} {
		d := newTestDrive(t)
		var v [PageWords]Word
		fill(&v, 0x2222)
		if err := Allocate(d, 9, testLabel(0), &v); err != nil {
			t.Fatal(err)
		}
		rec := trace.New(64)
		if live == "SetRecorder" {
			d.SetRecorder(rec)
		} else {
			d.EnsureVCRC()
			d.SetRecorder(rec)
		}
		if crc, ok := d.PeekVCRC(9); !ok || crc != valueCRC(v[:]) {
			t.Errorf("%s: written sector's checksum %#04x %v, want %#04x", live, crc, ok, valueCRC(v[:]))
		}
		if crc, ok := d.PeekVCRC(10); !ok || crc != valueCRC(onesValue[:]) {
			t.Errorf("%s: pristine sector's checksum %#04x %v, want %#04x", live, crc, ok, valueCRC(onesValue[:]))
		}
		var got [PageWords]Word
		if err := ReadValue(d, 9, testLabel(0), &got); err != nil {
			t.Fatal(err)
		}
		if err := d.Do(&Op{Addr: 10, Value: Read, ValueData: &got}); err != nil {
			t.Fatal(err)
		}
		if c := rec.Counter("disk.crc.mismatch"); c != 0 {
			t.Errorf("%s: %d checksum mismatches reading undamaged sectors", live, c)
		}
	}
}
