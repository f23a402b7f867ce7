package disk

import (
	"testing"
	"time"
)

// Golden timing tests: the paper's §3.3 numbers pinned in absolute simulated
// time, so no scheduler change can quietly trade them away. Two claims:
//
//   - consecutive sectors transfer back to back — a whole track costs one
//     sector time per sector, with no missed revolution between sectors;
//   - allocating or freeing a page costs exactly one extra revolution over
//     a plain data write, because the label write is a second operation on
//     the same sector.

func TestGoldenConsecutiveSectorsMissNoRevolution(t *testing.T) {
	for _, g := range []Geometry{Diablo31(), Trident()} {
		t.Run(g.Name, func(t *testing.T) {
			st := g.SectorTime()
			spt := g.SectorsPerTrack

			// One full track, starting slot-aligned: every sector costs
			// exactly one sector time, whether issued one Do at a time or
			// as a single chain in either mode.
			for _, issue := range []struct {
				name string
				run  func(d *Drive, ops []Op) error
			}{
				{"Do", func(d *Drive, ops []Op) error {
					for i := range ops {
						if err := d.Do(&ops[i]); err != nil {
							return err
						}
					}
					return nil
				}},
				{"DoChain/ordered", func(d *Drive, ops []Op) error {
					return FirstChainError(d.DoChain(ops, Ordered))
				}},
				{"DoChain/free-order", func(d *Drive, ops []Op) error {
					return FirstChainError(d.DoChain(ops, FreeOrder))
				}},
			} {
				d, err := NewDrive(g, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				addrs := make([]VDA, spt)
				for i := range addrs {
					addrs[i] = VDA(i)
				}
				lbls := make([][LabelWords]Word, spt)
				ops := readOps(addrs, lbls)
				start := d.Clock().Now()
				if err := issue.run(d, ops); err != nil {
					t.Fatalf("%s: %v", issue.name, err)
				}
				got := d.Clock().Now() - start
				want := time.Duration(spt) * st
				if got != want {
					t.Errorf("%s: full track took %v, want %d sector times = %v (a missed revolution would add %v)",
						issue.name, got, spt, want, g.RevTime)
				}
			}

			// Both tracks of the first cylinder: the head switch is free and
			// the second track starts at the top of the next revolution, so
			// the whole cylinder costs one revolution plus one track pass.
			d, err := NewDrive(g, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := spt * g.Heads
			addrs := make([]VDA, n)
			for i := range addrs {
				addrs[i] = VDA(i)
			}
			lbls := make([][LabelWords]Word, n)
			ops := readOps(addrs, lbls)
			start := d.Clock().Now()
			if err := FirstChainError(d.DoChain(ops, FreeOrder)); err != nil {
				t.Fatal(err)
			}
			got := d.Clock().Now() - start
			want := g.RevTime + time.Duration(spt)*st
			if got != want {
				t.Errorf("full cylinder took %v, want %v", got, want)
			}
		})
	}
}

func TestGoldenFreeOrderCatchesMidRotationArrival(t *testing.T) {
	// Arriving mid-rotation, the scheduler starts a dense track at the next
	// slot to pass under the head instead of waiting for slot zero: the
	// track costs the fraction of a slot to the next boundary plus one
	// revolution, not up to two.
	g := Diablo31()
	st := g.SectorTime()
	d, err := NewDrive(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := 5*st + st/2 // between slot 5 and 6
	d.Clock().Advance(off)
	addrs := make([]VDA, g.SectorsPerTrack)
	for i := range addrs {
		addrs[i] = VDA(i)
	}
	lbls := make([][LabelWords]Word, len(addrs))
	ops := readOps(addrs, lbls)
	start := d.Clock().Now()
	if err := FirstChainError(d.DoChain(ops, FreeOrder)); err != nil {
		t.Fatal(err)
	}
	got := d.Clock().Now() - start
	// Catch slot 6, then one full revolution brings the head back through
	// the wrap to the end of slot 5.
	want := (6*st - off) + g.RevTime
	if got != want {
		t.Errorf("mid-rotation dense track took %v, want %v", got, want)
	}
	if ops[0].Addr != 6 {
		t.Errorf("schedule starts at slot %d, want 6 (first slot after the head)", ops[0].Addr)
	}
}

func TestGoldenAllocFreeCostExactlyOneRevolution(t *testing.T) {
	for _, g := range []Geometry{Diablo31(), Trident()} {
		t.Run(g.Name, func(t *testing.T) {
			st := g.SectorTime()
			var v [PageWords]Word
			fill(&v, 0x200)

			// timeOf measures fn on a fresh, slot-aligned drive.
			timeOf := func(fn func(d *Drive) error) time.Duration {
				d, err := NewDrive(g, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				start := d.Clock().Now()
				if err := fn(d); err != nil {
					t.Fatal(err)
				}
				return d.Clock().Now() - start
			}

			write := timeOf(func(d *Drive) error {
				if err := Allocate(d, 0, testLabel(1), &v); err != nil {
					return err
				}
				// Align to the next slot-0 boundary, then measure the write.
				d.Clock().Advance(g.RevTime - d.Clock().Now()%g.RevTime)
				start := d.Clock().Now()
				err := WriteValue(d, 0, testLabel(1), &v)
				if got := d.Clock().Now() - start; got != st {
					t.Errorf("plain write took %v, want one sector time %v", got, st)
				}
				return err
			})
			_ = write

			alloc := timeOf(func(d *Drive) error {
				return Allocate(d, 0, testLabel(1), &v)
			})
			if want := g.RevTime + st; alloc != want {
				t.Errorf("Allocate took %v, want check+write = one revolution + one sector = %v", alloc, want)
			}
			if overhead := alloc - st; overhead != g.RevTime {
				t.Errorf("allocation overhead over a plain write = %v, want exactly one revolution %v", overhead, g.RevTime)
			}

			free := timeOf(func(d *Drive) error {
				if err := Allocate(d, 0, testLabel(1), &v); err != nil {
					return err
				}
				d.Clock().Advance(g.RevTime - d.Clock().Now()%g.RevTime)
				start := d.Clock().Now()
				err := Free(d, 0, testLabel(1))
				if got := d.Clock().Now() - start; got != g.RevTime+st {
					t.Errorf("Free took %v, want one revolution + one sector = %v", got, g.RevTime+st)
				}
				return err
			})
			_ = free

			// The chained forms must cost the identical simulated time.
			var sc OpScratch
			chainAlloc := timeOf(func(d *Drive) error {
				return sc.Allocate(d, 0, testLabel(1), &v)
			})
			if chainAlloc != alloc {
				t.Errorf("chained Allocate took %v, plain took %v; must be identical", chainAlloc, alloc)
			}
			chainFree := timeOf(func(d *Drive) error {
				if err := sc.Allocate(d, 0, testLabel(1), &v); err != nil {
					return err
				}
				d.Clock().Advance(g.RevTime - d.Clock().Now()%g.RevTime)
				start := d.Clock().Now()
				err := sc.Free(d, 0, testLabel(1))
				if got := d.Clock().Now() - start; got != g.RevTime+st {
					t.Errorf("chained Free took %v, want %v", got, g.RevTime+st)
				}
				return err
			})
			_ = chainFree
		})
	}
}

// The tentpole's zero-allocation contract: with no recorder attached, the
// drive's hot path — Do and DoChain in both modes, scheduler included —
// allocates nothing.
func TestUntracedHotPathAllocationFree(t *testing.T) {
	d := newTestDrive(t)
	op := hotOp()
	if a := testing.AllocsPerRun(200, func() {
		if err := d.Do(op); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("untraced Do allocates %.1f objects per op, want 0", a)
	}

	ops := hotChain()
	for _, mode := range []ChainMode{Ordered, FreeOrder} {
		if a := testing.AllocsPerRun(50, func() {
			if errs := d.DoChain(ops, mode); errs != nil {
				t.Fatal(FirstChainError(errs))
			}
		}); a != 0 {
			t.Errorf("untraced DoChain(%v) allocates %.1f objects per chain, want 0", mode, a)
		}
	}
}

// hotOp is a three-part read of one sector, the hot path's single op.
func hotOp() *Op {
	var hdr [HeaderWords]Word
	var lbl [LabelWords]Word
	var val [PageWords]Word
	return &Op{Addr: 5, Header: Read, HeaderData: &hdr, Label: Read, LabelData: &lbl, Value: Read, ValueData: &val}
}

// hotChain is 24 label reads scattered over four tracks, so a FreeOrder
// chain exercises the scheduler.
func hotChain() []Op {
	addrs := make([]VDA, 24)
	for i := range addrs {
		addrs[i] = VDA((i * 7) % 48)
	}
	return readOps(addrs, make([][LabelWords]Word, len(addrs)))
}

// BenchmarkDo reports the host cost of one untraced sector operation.
func BenchmarkDo(b *testing.B) {
	d := newTestDrive(b)
	op := hotOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Do(op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoChainFreeOrder reports the host cost of one untraced
// 24-operation FreeOrder chain.
func BenchmarkDoChainFreeOrder(b *testing.B) {
	d := newTestDrive(b)
	ops := hotChain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := d.DoChain(ops, FreeOrder); errs != nil {
			b.Fatal(FirstChainError(errs))
		}
	}
}
