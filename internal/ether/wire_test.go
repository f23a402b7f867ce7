package ether

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"altoos/internal/sim"
)

// fleetWire builds a fleet-mode medium of n stations at addresses 1..n,
// each on its own clock.
func fleetWire(tb testing.TB, n int) []*Station {
	tb.Helper()
	net := New(nil)
	net.SetFleetMode(true)
	sts := make([]*Station, n)
	for i := range sts {
		st, err := net.Attach(Addr(i + 1))
		if err != nil {
			tb.Fatal(err)
		}
		st.SetClock(sim.NewClock())
		sts[i] = st
	}
	return sts
}

// sendRecv is one unicast delivery on a fleet-mode medium, the way a window
// sees it: a 64-word send, the receiver's clock reaching the arrival, the
// receive, and the scheduler taking the medium's gained list.
func sendRecv(tb testing.TB, a, b *Station, payload []Word, gained []*Station) []*Station {
	if err := a.Send(Packet{Dst: b.Addr(), Payload: payload}); err != nil {
		tb.Fatal(err)
	}
	b.Clock().AdvanceTo(a.Clock().Now())
	if _, ok := b.Recv(); !ok {
		tb.Fatal("delivery not received at its arrival time")
	}
	return a.Network().TakeGained(gained[:0])
}

// BenchmarkSendRecv reports the wire's host cost for one unicast delivery
// on a medium of 101 stations.
func BenchmarkSendRecv(b *testing.B) {
	sts := fleetWire(b, 101)
	payload := make([]Word, 64)
	gained := sendRecv(b, sts[0], sts[1], payload, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gained = sendRecv(b, sts[0], sts[1], payload, gained)
	}
}

// TestSendRecvAllocatesOnlyThePayload pins the wire's steady state: a
// unicast send and its receive allocate once, for the payload copy the wire
// makes — no destination list, no delivery list, no promotion buffer.
func TestSendRecvAllocatesOnlyThePayload(t *testing.T) {
	sts := fleetWire(t, 101)
	payload := make([]Word, 64)
	gained := sendRecv(t, sts[0], sts[1], payload, nil) // sizes the queues
	allocs := testing.AllocsPerRun(100, func() {
		gained = sendRecv(t, sts[0], sts[1], payload, gained)
	})
	if allocs != 1 {
		t.Fatalf("a unicast send and receive allocate %v times, want 1 (the payload copy)", allocs)
	}
}

// TestSendCopiesPayload pins Send's contract: the wire serializes the
// payload before Send returns, so a sender that overwrites its buffer at
// once, as pup's endpoints do, cannot change a packet already sent —
// whether it was queued at the receiver at once (shared clock) or is held
// until its arrival time (fleet mode).
func TestSendCopiesPayload(t *testing.T) {
	shared := New(nil)
	sa, err := shared.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := shared.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	fleet := fleetWire(t, 2)
	for _, pair := range [][2]*Station{{sa, sb}, {fleet[0], fleet[1]}} {
		a, b := pair[0], pair[1]
		buf := []Word{1, 2, 3}
		if err := a.Send(Packet{Dst: b.Addr(), Payload: buf}); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xDEAD
		}
		b.Clock().AdvanceTo(a.Clock().Now())
		p, ok := b.Recv()
		if !ok {
			t.Fatal("no packet delivered")
		}
		if fmt.Sprint(p.Payload) != "[1 2 3]" || !p.SumOK() {
			t.Fatalf("delivered payload %v (checksum ok %v) changed with the sender's buffer", p.Payload, p.SumOK())
		}
	}
}

// modelHeld is one delivery in the brute-force promotion model.
type modelHeld struct {
	release time.Duration
	src     Addr
	seq     Word
}

// TestHeapPromotionMatchesModel drives interleaved sends from four stations
// to a fifth, with forced delay and duplicate faults, and receives at random
// clock advances and horizons. Every received packet must be the one a
// brute-force model — sort the due set by (release, source, sequence) —
// delivers, and EarliestArrival must equal the model's minimum after every
// step. Clock steps and the delay are multiples of one packet's wire time,
// so equal releases from different senders, and from one sender's delayed
// and undelayed packets, are common: a heap that ordered by release alone
// would deliver some of them out of order.
func TestHeapPromotionMatchesModel(t *testing.T) {
	const (
		senders = 4
		sends   = 48 // per sender
	)
	dur := (2 + HeaderWords) * WireTime // payload: source and sequence
	for _, seed := range []uint64{1, 2, 3, 7, 42, 424242, 9001, 31337} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rnd := sim.NewRand(seed)
			force := map[int64]Fault{}
			for i := int64(0); i < sends; i++ {
				switch rnd.Intn(4) {
				case 0:
					force[i] = FaultDelay
				case 1:
					force[i] = FaultDup
				}
			}
			sts := fleetWire(t, senders+1)
			net, rx := sts[0].Network(), sts[senders]
			net.InjectFaults(FaultConfig{Seed: seed, DelayTime: 3 * dur, Force: force})

			var held, queued []modelHeld
			sent := make([]int, senders)
			check := func(step int) {
				t.Helper()
				var want time.Duration
				wantOK := len(queued) > 0 || len(held) > 0
				if len(queued) == 0 {
					for i, h := range held {
						if i == 0 || h.release < want {
							want = h.release
						}
					}
				}
				if got, ok := rx.EarliestArrival(); got != want || ok != wantOK {
					t.Fatalf("step %d: EarliestArrival() = %v, %v; model %v, %v", step, got, ok, want, wantOK)
				}
			}
			for step := 0; step < 6*senders*sends; step++ {
				if i := rnd.Intn(senders); rnd.Intn(3) > 0 && sent[i] < sends {
					tx := sts[i]
					tx.Clock().Advance(time.Duration(rnd.Intn(3)) * dur)
					seq := Word(sent[i])
					if err := tx.Send(Packet{Dst: rx.Addr(), Payload: []Word{Word(tx.Addr()), seq}}); err != nil {
						t.Fatal(err)
					}
					h := modelHeld{release: tx.Clock().Now(), src: tx.Addr(), seq: seq}
					copies := 1
					switch force[int64(sent[i])] {
					case FaultDelay:
						h.release += 3 * dur
					case FaultDup:
						copies = 2
					}
					for c := 0; c < copies; c++ {
						held = append(held, h)
					}
					sent[i]++
				} else {
					clk := rx.Clock()
					clk.Advance(time.Duration(rnd.Intn(4)) * dur)
					horizon := clk.Now() + time.Duration(rnd.Intn(5)-2)*dur
					net.SetHorizon(horizon)
					limit := min(clk.Now(), horizon-1)
					sort.SliceStable(held, func(i, j int) bool {
						a, b := held[i], held[j]
						if a.release != b.release {
							return a.release < b.release
						}
						if a.src != b.src {
							return a.src < b.src
						}
						return a.seq < b.seq
					})
					due := 0
					for due < len(held) && held[due].release <= limit {
						due++
					}
					queued = append(queued, held[:due]...)
					held = append([]modelHeld(nil), held[due:]...)
					p, ok := rx.Recv()
					if ok != (len(queued) > 0) {
						t.Fatalf("step %d: Recv ok = %v with %d packets due in the model", step, ok, len(queued))
					}
					if ok {
						want := queued[0]
						queued = queued[1:]
						if Addr(p.Payload[0]) != want.src || p.Payload[1] != want.seq {
							t.Fatalf("step %d: received (src %d, seq %d), model delivers (src %d, seq %d)",
								step, p.Payload[0], p.Payload[1], want.src, want.seq)
						}
					}
				}
				check(step)
			}
		})
	}
}
