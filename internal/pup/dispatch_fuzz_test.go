package pup

import (
	"testing"

	"altoos/internal/ether"
)

// FuzzDispatch feeds one arbitrary packet — any type, any header words, any
// payload — to both ends of an open connection: the listening endpoint and
// the dialer, which still has data in flight. toConn stamps the open
// connection's id into the first header word, so the fuzzer reaches the
// live-connection paths rather than only the unknown-connection ones. The
// endpoints must not panic and no poll may fail; afterwards the listener
// must still accept a fresh Dial and deliver its first message. The seed
// corpus under testdata/fuzz replays in every go test run; go test -fuzz
// FuzzDispatch explores further.
func FuzzDispatch(f *testing.F) {
	header := []byte{0, 0, 0, 1, 0, 0, 0, 32, 0xFF, 0xFF, 0, 0, 0, 7, 0xAB, 0xCD}
	for _, typ := range []ether.Word{TypeOpen, TypeOpenAck, TypeData, TypeAck, TypeClose, TypeCloseAck, 0} {
		f.Add(uint16(typ), true, header)
	}
	f.Add(uint16(TypeData), false, []byte{1})
	f.Fuzz(func(t *testing.T, typ uint16, toConn bool, raw []byte) {
		_, srv, cli, _ := pair(t, Config{})
		conn, err := cli.Dial(1)
		if err != nil {
			t.Fatal(err)
		}
		var accepted []*Conn
		accept := func() {
			for {
				c, ok := srv.Accept()
				if !ok {
					return
				}
				accepted = append(accepted, c)
			}
		}
		pump(t, srv, cli, 10000, func() bool {
			accept()
			return len(accepted) > 0 && conn.State() == StateOpen
		})
		for _, m := range [][]ether.Word{{1}, {2}} {
			if err := conn.Send(m); err != nil {
				t.Fatal(err)
			}
		}

		// The fuzzed packet, sealed so it passes the checksum, lands on
		// each endpoint as if the other had sent it.
		words := make([]ether.Word, 0, (len(raw)+1)/2)
		for i := 0; i < len(raw) && len(words) < ether.MaxPayload; i += 2 {
			w := ether.Word(raw[i]) << 8
			if i+1 < len(raw) {
				w |= ether.Word(raw[i+1])
			}
			words = append(words, w)
		}
		if toConn && len(words) > 0 {
			words[0] = conn.ID()
		}
		for _, to := range []struct {
			ep  *Endpoint
			src ether.Addr
		}{{srv, 2}, {cli, 1}} {
			pkt := ether.Packet{
				Dst:     to.ep.Station().Addr(),
				Src:     to.src,
				Type:    typ,
				Payload: append([]ether.Word(nil), words...),
			}
			pkt.Check = pkt.Sum()
			if err := to.ep.dispatch(pkt); err != nil {
				t.Fatalf("dispatch type %#x: %v", typ, err)
			}
		}
		for i := 0; i < 100; i++ {
			if _, err := srv.Poll(); err != nil {
				t.Fatalf("server poll after the fuzzed packet: %v", err)
			}
			if _, err := cli.Poll(); err != nil {
				t.Fatalf("client poll after the fuzzed packet: %v", err)
			}
		}

		// The listener still answers: a fresh connection opens and its
		// first message reaches an accepted connection.
		fresh, err := cli.Dial(1)
		if err != nil {
			t.Fatal(err)
		}
		want := []ether.Word{0xBEEF, 0xF00D}
		if err := fresh.Send(want); err != nil {
			t.Fatal(err)
		}
		got := false
		pump(t, srv, cli, 10000, func() bool {
			accept()
			for _, c := range accepted {
				for {
					m, ok := c.Recv()
					if !ok {
						break
					}
					got = got || (len(m) == 2 && m[0] == want[0] && m[1] == want[1])
				}
			}
			return got
		})
	})
}
