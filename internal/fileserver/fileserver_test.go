package fileserver

import (
	"bytes"
	"errors"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// fixture builds a server machine and n client endpoints on one wire.
func fixture(t *testing.T, n int) (*ether.Network, *Server, []*Client, *trace.Recorder) {
	t.Helper()
	clock := sim.NewClock()
	wire := ether.New(clock)
	rec := trace.New(1 << 16)
	wire.SetRecorder(rec)

	d, err := disk.NewDrive(disk.Diablo31(), 1, clock)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.InitRoot(fs); err != nil {
		t.Fatal(err)
	}
	sst, err := wire.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs, pup.NewEndpoint(sst, pup.Config{}))
	clients := make([]*Client, n)
	for i := range clients {
		cst, err := wire.Attach(ether.Addr(2 + i))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewClient(pup.NewEndpoint(cst, pup.Config{Seed: uint64(i)}))
		if err := clients[i].Connect(1); err != nil {
			t.Fatal(err)
		}
	}
	return wire, srv, clients, rec
}

// pump polls the server and every client until all clients are Done.
func pump(t *testing.T, srv *Server, clients []*Client) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatalf("server: %v", err)
		}
		done := true
		for _, c := range clients {
			if _, err := c.Poll(); err != nil {
				t.Fatalf("client: %v", err)
			}
			done = done && c.Done()
		}
		if done {
			return
		}
	}
	t.Fatal("transfers never completed")
}

// pattern builds deterministic test content.
func pattern(n, salt int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + salt)
	}
	return out
}

func TestStoreAndFetch(t *testing.T) {
	wire, srv, clients, _ := fixture(t, 1)
	c := clients[0]

	// A multi-page file: exercises the chained interior-page paths.
	want := pattern(5*disk.PageBytes+123, 1)
	if err := c.Store("alpha", want); err != nil {
		t.Fatal(err)
	}
	// One transfer at a time per client: a second request while the
	// store is in flight is refused.
	if err := c.Fetch("alpha"); !errors.Is(err, ErrBusy) {
		t.Fatalf("request while busy: got %v, want ErrBusy", err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); err != nil {
		t.Fatalf("store: %v", err)
	}

	// The fetch crosses the wire, so it costs time on the shared clock.
	before := wire.Clock().Now()
	if err := c.Fetch("alpha"); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if wire.Clock().Now() == before {
		t.Fatal("fetch charged no simulated time")
	}
	got, err := c.Result()
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fetched %d bytes, want %d; corrupted", len(got), len(want))
	}

	st := srv.Stats()
	if st.Fetches != 1 || st.Stores != 1 || st.Sessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesIn != int64(len(want)) || st.BytesOut != int64(len(want)) {
		t.Fatalf("byte stats = %+v, want %d each way", st, len(want))
	}
}

func TestOverwriteShrinkAndGrow(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]

	store := func(name string, data []byte) {
		t.Helper()
		if err := c.Store(name, data); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		if _, err := c.Result(); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	fetch := func(name string) []byte {
		t.Helper()
		if err := c.Fetch(name); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		got, err := c.Result()
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		return got
	}

	// Grow, shrink, and exact-page-boundary contents through the same name:
	// chained overwrites, one-page growth, and truncation all fire.
	cases := [][]byte{
		pattern(3*disk.PageBytes+10, 2),
		pattern(7*disk.PageBytes+499, 3),
		pattern(2*disk.PageBytes, 4),
		pattern(17, 5),
		{},
		// Many messages, the last one partial.
		pattern(3*DataBytesPerMsg+123, 6),
	}
	for i, want := range cases {
		store("beta", want)
		if got := fetch("beta"); !bytes.Equal(got, want) {
			t.Fatalf("case %d: fetched %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestFetchMissingFile(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	if err := c.Fetch("no-such-file"); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
}

func TestConcurrentSessionsOverLossyWire(t *testing.T) {
	const n = 4
	wire, srv, clients, rec := fixture(t, n)
	wire.InjectFaults(ether.FaultConfig{
		Seed:    5,
		Drop:    ether.Rate{Num: 1, Den: 12},
		Dup:     ether.Rate{Num: 1, Den: 40},
		Corrupt: ether.Rate{Num: 1, Den: 40},
	})

	// All clients store concurrently, then all fetch back.
	want := make([][]byte, n)
	for i, c := range clients {
		want[i] = pattern(2*disk.PageBytes+100*i+7, i)
		if err := c.Store("f"+string(rune('a'+i)), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, srv, clients)
	for i, c := range clients {
		if _, err := c.Result(); err != nil {
			t.Fatalf("client %d store: %v", i, err)
		}
	}
	for i, c := range clients {
		if err := c.Fetch("f" + string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, srv, clients)
	for i, c := range clients {
		got, err := c.Result()
		if err != nil {
			t.Fatalf("client %d fetch: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("client %d: payload corrupted", i)
		}
	}
	if st := srv.Stats(); st.Sessions != n || st.Stores != n || st.Fetches != n {
		t.Fatalf("stats = %+v", st)
	}
	if rec.Counter("ether.drop") == 0 {
		t.Fatal("fault medium never dropped a packet; test proves nothing")
	}
	if rec.Counter("pup.retransmit") == 0 {
		t.Fatal("no retransmissions despite drops")
	}
}

func TestSessionSpanTraced(t *testing.T) {
	_, srv, clients, rec := fixture(t, 1)
	c := clients[0]
	if err := c.Store("gamma", pattern(100, 9)); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && c.Conn().State() != pup.StateClosed; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the server notice the close and retire the session.
	for i := 0; i < 100; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.Counter("fs.session.close"); n != 1 {
		t.Fatalf("fs.session.close = %d, want 1", n)
	}
	if st := srv.Stats(); st.Active != 0 {
		t.Fatalf("active sessions = %d, want 0", st.Active)
	}
}

// TestPollStepsOneSession pins Poll's contract under concurrent load. A Poll
// that worked ran at most one request's disk work, so the caller's loop comes
// round between sessions; a Poll that reports no work leaves no received
// message unread, or an idle caller would sleep on a request that has already
// arrived.
func TestPollStepsOneSession(t *testing.T) {
	const n = 4
	_, srv, clients, _ := fixture(t, n)
	for i, c := range clients {
		if err := c.Store("f"+string(rune('a'+i)), pattern(2*disk.PageBytes+100*i, i)); err != nil {
			t.Fatal(err)
		}
	}
	contended := false
	for step := 0; ; step++ {
		if step == 200000 {
			t.Fatal("stores never completed")
		}
		before := srv.Stats()
		worked, err := srv.Poll()
		if err != nil {
			t.Fatal(err)
		}
		after := srv.Stats()
		if d := after.Stores - before.Stores; d > 1 {
			t.Fatalf("one Poll landed %d stores, want at most 1", d)
		}
		waiting := 0
		for _, ss := range srv.sessions {
			if ss.conn.Queued() > 0 {
				waiting++
			}
		}
		if !worked && waiting > 0 {
			t.Fatalf("Poll reported no work while %d sessions hold unread messages", waiting)
		}
		contended = contended || waiting > 1
		done := true
		for _, c := range clients {
			if _, err := c.Poll(); err != nil {
				t.Fatal(err)
			}
			done = done && c.Done()
		}
		if done {
			break
		}
	}
	if !contended {
		t.Fatal("no two sessions ever waited at once; the test exercised nothing")
	}
	for i, c := range clients {
		if _, err := c.Result(); err != nil {
			t.Fatalf("client %d store: %v", i, err)
		}
	}
}
