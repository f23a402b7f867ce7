package pup

import (
	"fmt"
	"testing"

	"altoos/internal/ether"
)

// exchangeRig is an untraced open connection over a shared-clock wire:
// conn is the dialer's end, acc the listener's.
type exchangeRig struct {
	srv, cli  *Endpoint
	conn, acc *Conn
	msg       []ether.Word
}

// newExchange opens a connection on a wire that drops one packet in
// dropDen (none when dropDen is 0).
func newExchange(tb testing.TB, dropDen int) *exchangeRig {
	tb.Helper()
	net := ether.New(nil)
	if dropDen > 0 {
		net.InjectFaults(ether.FaultConfig{Seed: 7, Drop: ether.Rate{Num: 1, Den: dropDen}})
	}
	sst, err := net.Attach(1)
	if err != nil {
		tb.Fatal(err)
	}
	cst, err := net.Attach(2)
	if err != nil {
		tb.Fatal(err)
	}
	r := &exchangeRig{srv: NewEndpoint(sst, Config{}), cli: NewEndpoint(cst, Config{}), msg: make([]ether.Word, 64)}
	r.srv.Listen()
	if r.conn, err = r.cli.Dial(1); err != nil {
		tb.Fatal(err)
	}
	r.poll(tb, func() bool {
		if r.acc == nil {
			r.acc, _ = r.srv.Accept()
		}
		return r.acc != nil && r.conn.State() == StateOpen
	})
	return r
}

// poll runs both endpoints until done holds.
func (r *exchangeRig) poll(tb testing.TB, done func() bool) {
	for i := 0; !done(); i++ {
		if i == 100000 {
			tb.Fatal("no progress after 100000 polls")
		}
		if _, err := r.srv.Poll(); err != nil {
			tb.Fatal(err)
		}
		if _, err := r.cli.Poll(); err != nil {
			tb.Fatal(err)
		}
	}
}

// exchange is one steady-state round: the dialer sends a 64-word message,
// and both ends poll until the listener has received it and the dialer
// holds no unacknowledged data.
func (r *exchangeRig) exchange(tb testing.TB) {
	if err := r.conn.Send(r.msg); err != nil {
		tb.Fatal(err)
	}
	got := false
	r.poll(tb, func() bool {
		if _, ok := r.acc.Recv(); ok {
			got = true
		}
		return got && r.conn.Unacked() == 0
	})
}

// exchangeLoss lists the rungs: a clean wire and one dropping a tenth of
// its packets.
var exchangeLoss = []struct {
	name    string
	dropDen int
}{{"loss0", 0}, {"loss10", 10}}

// BenchmarkExchange reports the host cost of one steady-state message
// exchange, retransmissions included.
func BenchmarkExchange(b *testing.B) {
	for _, l := range exchangeLoss {
		b.Run(l.name, func(b *testing.B) {
			r := newExchange(b, l.dropDen)
			r.exchange(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.exchange(b)
			}
		})
	}
}

// TestExchangeAllocations pins the transport's steady-state allocations
// per exchange at both rungs: the send window's copy of the message, the
// receive queue's copy, and the wire's payload copies of the data packet
// and of its ack. Packets are built in the endpoint's scratch buffer, not
// in a fresh slice per send, and the queues pop without giving up their
// backing arrays.
func TestExchangeAllocations(t *testing.T) {
	const pinned = 4
	for _, l := range exchangeLoss {
		t.Run(l.name, func(t *testing.T) {
			r := newExchange(t, l.dropDen)
			for i := 0; i < 10; i++ {
				r.exchange(t) // size the queues
			}
			if allocs := testing.AllocsPerRun(200, func() { r.exchange(t) }); allocs > pinned {
				t.Fatalf("one exchange allocates %v times, pinned at %v", allocs, pinned)
			}
		})
	}
}

// TestStatelessReplyAfterTraffic pins the scratch buffer's other user: a
// CloseAck for a connection the endpoint does not hold carries a header of
// only the id, the full window and the flow, even when the buffer still
// holds the sequence, ack and SACK words of the packet sent before it.
func TestStatelessReplyAfterTraffic(t *testing.T) {
	r := newExchange(t, 0)
	for i := 0; i < 3; i++ {
		r.exchange(t)
	}
	stranger, err := r.srv.Station().Network().Attach(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger.Send(ether.Packet{Dst: 1, Type: TypeClose, Flow: 9, Payload: []ether.Word{0x4242, 5, 6, 7, 8, 9, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Poll(); err != nil {
		t.Fatal(err)
	}
	p, ok := stranger.Recv()
	if !ok || p.Type != TypeCloseAck {
		t.Fatalf("no CloseAck for the unknown connection: %+v, %v", p, ok)
	}
	want := []ether.Word{0x4242, 0, 0, recvWindow, 0, 0, 9}
	if fmt.Sprint(p.Payload) != fmt.Sprint(want) {
		t.Fatalf("stateless CloseAck header %v, want %v", p.Payload, want)
	}
}
