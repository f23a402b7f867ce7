package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
)

// ringRun builds a fleet of n machines on one medium, each sending msgs
// packets around a ring while receiving its neighbour's, with deliberately
// uneven local work so the machines' clocks drift apart. It returns one
// log line per observed event, machines concatenated in creation order —
// the byte-level artifact the determinism tests compare.
func ringRun(t *testing.T, n, msgs, workers int) string {
	t.Helper()
	net := ether.New(nil)
	logs := make([][]string, n)
	eng := New(Workers(workers), Medium(net))
	for i := 0; i < n; i++ {
		i := i
		clk := sim.NewClock()
		st, err := net.Attach(ether.Addr(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		st.SetClock(clk)
		next := ether.Addr((i+1)%n + 1)
		eng.Add(MachineConfig{
			Name:    fmt.Sprintf("m%d", i),
			Clock:   clk,
			Station: st,
			StartAt: time.Duration(i) * 100 * time.Nanosecond,
			Program: func(m *Machine) error {
				sent, got := 0, 0
				for got < msgs || sent < msgs {
					m.Sync()
					worked := false
					for {
						p, ok := st.Recv()
						if !ok {
							break
						}
						worked = true
						logs[i] = append(logs[i], fmt.Sprintf("m%d recv %d from %d at %v", i, p.Type, p.Src, clk.Now()))
						got++
					}
					if sent < msgs {
						worked = true
						if err := st.Send(ether.Packet{Dst: next, Type: ether.Word(sent)}); err != nil {
							return err
						}
						// Uneven local work, like a disk transfer: machines
						// overrun the window by machine- and step-dependent
						// amounts.
						clk.Advance(time.Duration((i+1)*(sent%7+1)) * 40 * time.Microsecond)
						sent++
					}
					if !worked {
						m.Idle()
					}
				}
				logs[i] = append(logs[i], fmt.Sprintf("m%d done at %v", i, clk.Now()))
				return nil
			},
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("fleet run (workers=%d): %v", workers, err)
	}
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return strings.Join(all, "\n")
}

// TestWindowedDeterminism is the subsystem's contract: the merged event log
// of an interacting fleet is byte-identical across repeated runs and across
// worker counts.
func TestWindowedDeterminism(t *testing.T) {
	base := ringRun(t, 5, 12, 1)
	if !strings.Contains(base, "recv") {
		t.Fatalf("ring exchanged no traffic:\n%s", base)
	}
	for _, workers := range []int{1, 4, 8} {
		for run := 0; run < 2; run++ {
			got := ringRun(t, 5, 12, workers)
			if got != base {
				t.Fatalf("workers=%d run=%d diverged from workers=1 baseline:\n--- base\n%s\n--- got\n%s", workers, run, base, got)
			}
		}
	}
}

// TestWindowedWakesBlockedReceiver: a machine parked with no deadline of
// its own wakes exactly when a delivery is scheduled for it.
func TestWindowedWakesBlockedReceiver(t *testing.T) {
	net := ether.New(nil)
	ca, cb := sim.NewClock(), sim.NewClock()
	sa, _ := net.Attach(1)
	sb, _ := net.Attach(2)
	sa.SetClock(ca)
	sb.SetClock(cb)
	var gotAt time.Duration
	eng := New(Medium(net))
	eng.Add(MachineConfig{
		Name: "sender", Clock: ca, Station: sa,
		// Boot late so the receiver parks ∞ first.
		StartAt: time.Millisecond,
		Program: func(m *Machine) error {
			return sa.Send(ether.Packet{Dst: 2, Payload: []ether.Word{9}})
		},
	})
	eng.Add(MachineConfig{
		Name: "receiver", Clock: cb, Station: sb,
		Program: func(m *Machine) error {
			for {
				m.Sync()
				if _, ok := sb.Recv(); ok {
					gotAt = cb.Now()
					return nil
				}
				m.Idle()
			}
		},
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wire := time.Duration(1+ether.HeaderWords) * ether.WireTime
	if want := time.Millisecond + wire; gotAt != want {
		t.Fatalf("receiver woke at %v, want exactly the arrival time %v", gotAt, want)
	}
}

// TestDaemonDrains: when every non-daemon has finished, the engine wakes
// the daemons with Draining set and the fleet ends cleanly.
func TestDaemonDrains(t *testing.T) {
	net := ether.New(nil)
	cs, cc := sim.NewClock(), sim.NewClock()
	ss, _ := net.Attach(1)
	sc, _ := net.Attach(2)
	ss.SetClock(cs)
	sc.SetClock(cc)
	served := 0
	eng := New(Medium(net))
	eng.Add(MachineConfig{
		Name: "server", Clock: cs, Station: ss, Daemon: true,
		Program: func(m *Machine) error {
			for !m.Draining() {
				m.Sync()
				if p, ok := ss.Recv(); ok {
					served++
					if err := ss.Send(ether.Packet{Dst: p.Src, Type: p.Type}); err != nil {
						return err
					}
					continue
				}
				m.Idle()
			}
			return nil
		},
	})
	eng.Add(MachineConfig{
		Name: "client", Clock: cc, Station: sc,
		Program: func(m *Machine) error {
			if err := sc.Send(ether.Packet{Dst: 1, Type: 77}); err != nil {
				return err
			}
			for {
				m.Sync()
				if p, ok := sc.Recv(); ok {
					if p.Type != 77 {
						return fmt.Errorf("echo type %d", p.Type)
					}
					return nil
				}
				m.Idle()
			}
		},
	})
	if err := runJoined(t, eng); err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Fatalf("server served %d requests, want 1", served)
	}
}

// TestStallIsAnError: a non-daemon blocked forever with no scheduled
// delivery fails the run instead of hanging it.
func TestStallIsAnError(t *testing.T) {
	eng := New()
	eng.Add(MachineConfig{
		Name: "waiter", Clock: sim.NewClock(),
		Program: func(m *Machine) error {
			m.Idle() // no deadline, no station: parks forever
			return nil
		},
	})
	err := runJoined(t, eng)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestErrorAbortsFleet: one machine's error fails Run and unwinds the
// others without deadlock — the one parked mid-program and the one that
// never got to start alike.
func TestErrorAbortsFleet(t *testing.T) {
	boom := errors.New("boom")
	idler := func(m *Machine) error {
		for {
			m.Idle()
		}
	}
	eng := New()
	eng.Add(MachineConfig{
		Name: "failer", Clock: sim.NewClock(),
		Program: func(m *Machine) error { return boom },
	})
	eng.Add(MachineConfig{Name: "bystander", Clock: sim.NewClock(), Program: idler})
	eng.Add(MachineConfig{Name: "late", Clock: sim.NewClock(), StartAt: time.Second, Program: idler})
	if err := runJoined(t, eng); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// runJoined runs the engine and fails the test if a coroutine outlives Run.
// Every machine is a coroutine with a goroutine of its own, so Run must
// finish or stop each one on every way out: success, a machine's error, a
// stall and the window budget alike. The check counts coroutine goroutines
// rather than comparing runtime.NumGoroutine around Run, which an earlier
// test's worker goroutines, still exiting, would make flaky.
func runJoined(t *testing.T, eng *Engine) error {
	t.Helper()
	err := eng.Run()
	if n := coroutines(); n != 0 {
		t.Errorf("%d coroutine goroutines outlive Run", n)
	}
	return err
}

// coroutines counts the live goroutines that iter.Pull created.
func coroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by iter.Pull")
}

// TestWindowedRoundCap: a fleet that never finishes trips ErrRoundCap once
// the engine has opened its budget of windows.
func TestWindowedRoundCap(t *testing.T) {
	eng := New()
	eng.maxWindows = 10
	clk := sim.NewClock()
	eng.Add(MachineConfig{Name: "spinner", Clock: clk, Program: func(m *Machine) error {
		for {
			clk.Advance(time.Microsecond)
			m.Sync()
		}
	}})
	if err := runJoined(t, eng); !errors.Is(err, ErrRoundCap) {
		t.Fatalf("err = %v, want ErrRoundCap", err)
	}
}

// scheduleDigest is the activation-log digest of scheduleRun as the engine
// granted it when it still rescanned every machine at every window. The
// indexed queue must reproduce it exactly: same machines, same wakes, same
// horizons.
const scheduleDigest = "5b732563682178ed"

// actLog records one machine's activations: the first wake and every resume
// from a park, as (machine, granted wake, horizon, draining). After a
// resume the machine's clock reads exactly the granted wake, because the
// engine never grants a wake earlier than the machine's own time.
type actLog struct{ lines []string }

func (l *actLog) note(m *Machine) {
	l.lines = append(l.lines, fmt.Sprintf("%s wake=%v horizon=%v draining=%v", m.name, m.clock.Now(), m.horizon, m.draining))
}

// sync is Machine.Sync with its activation noted. A Sync that parks parks
// exactly once: the next window's horizon lies beyond the granted wake.
func (l *actLog) sync(m *Machine) {
	if m.clock.Now() >= m.horizon {
		m.Sync()
		l.note(m)
	}
}

// idle is Machine.Idle with its activation noted.
func (l *actLog) idle(m *Machine) {
	m.Idle()
	l.note(m)
}

// scheduleRun builds a seeded fleet that exercises every way the engine
// grants a wake, and returns its activation log with machines concatenated
// in creation order:
//   - a faulty wire that duplicates and delays deliveries, so held releases
//     arrive out of send order;
//   - a daemon server that idles with no deadline and is drained at the end;
//   - a machine with two stations, one talking to the server and one
//     listening for broadcasts;
//   - clients that idle on a deadline or on traffic alone;
//   - a watcher whose far deadline each broadcast arrival pulls forward;
//   - a station-less timer that wakes only on its own deadlines.
func scheduleRun(t *testing.T, workers int) (log string, faults ether.FaultStats) {
	t.Helper()
	const (
		server  = ether.Addr(1)
		dualA   = ether.Addr(2)
		dualB   = ether.Addr(3)
		watcher = ether.Addr(20)
		clients = 4
		reqs    = 10
		beacon  = 1000 // Types at or above are broadcast beacons
		beacons = 4
	)
	net := ether.New(nil)
	fm := net.InjectFaults(ether.FaultConfig{
		Seed:      14,
		Dup:       ether.Rate{Num: 1, Den: 5},
		Delay:     ether.Rate{Num: 1, Den: 4},
		DelayTime: 700 * time.Microsecond,
	})
	eng := New(Workers(workers), Medium(net))
	var logs []*actLog
	attach := func(addr ether.Addr, clk *sim.Clock) *ether.Station {
		st, err := net.Attach(addr)
		if err != nil {
			t.Fatal(err)
		}
		st.SetClock(clk)
		return st
	}
	add := func(cfg MachineConfig, body func(m *Machine, l *actLog) error) {
		l := &actLog{}
		logs = append(logs, l)
		cfg.Program = func(m *Machine) error {
			l.note(m)
			return body(m, l)
		}
		eng.Add(cfg)
	}
	// await collects distinct non-beacon Types on st until it has want of
	// them, idling on a poll deadline when poll > 0 and on traffic alone
	// otherwise.
	await := func(m *Machine, l *actLog, st *ether.Station, want int, poll time.Duration) {
		seen := map[ether.Word]bool{}
		for len(seen) < want {
			l.sync(m)
			if p, ok := st.Recv(); ok {
				if p.Type < beacon {
					seen[p.Type] = true
				}
				continue
			}
			if poll > 0 {
				m.Clock().RequestWake(m.Clock().Now() + poll)
			}
			l.idle(m)
		}
	}

	sclk := sim.NewClock()
	sst := attach(server, sclk)
	drained := false
	add(MachineConfig{Name: "server", Clock: sclk, Station: sst, Daemon: true}, func(m *Machine, l *actLog) error {
		for !m.Draining() {
			l.sync(m)
			p, ok := sst.Recv()
			if !ok {
				l.idle(m)
				continue
			}
			if p.Type >= beacon {
				continue
			}
			sclk.Advance(time.Duration(p.Type%5+1) * 30 * time.Microsecond)
			if err := sst.Send(ether.Packet{Dst: p.Src, Type: p.Type}); err != nil {
				return err
			}
		}
		drained = true
		return nil
	})

	dclk := sim.NewClock()
	da, db := attach(dualA, dclk), attach(dualB, dclk)
	add(MachineConfig{Name: "dual", Clock: dclk, Station: da, Stations: []*ether.Station{db}, StartAt: 50 * time.Microsecond},
		func(m *Machine, l *actLog) error {
			for k := 0; k < reqs; k++ {
				if err := da.Send(ether.Packet{Dst: server, Type: ether.Word(900 + k)}); err != nil {
					return err
				}
				dclk.Advance(time.Duration(k%3+1) * 90 * time.Microsecond)
			}
			// A station with a delivery waiting wakes its machine, so the
			// dual machine polls both of its stations on every activation.
			echoes, got := map[ether.Word]bool{}, map[ether.Word]bool{}
			for len(echoes) < reqs || len(got) < beacons {
				l.sync(m)
				worked := false
				if p, ok := da.Recv(); ok {
					worked = true
					if p.Type < beacon {
						echoes[p.Type] = true
					}
				}
				if p, ok := db.Recv(); ok {
					worked = true
					got[p.Type] = true
				}
				if !worked {
					l.idle(m)
				}
			}
			return nil
		})

	for i := 0; i < clients; i++ {
		i := i
		clk := sim.NewClock()
		st := attach(ether.Addr(10+i), clk)
		add(MachineConfig{Name: fmt.Sprintf("c%d", i), Clock: clk, Station: st, StartAt: time.Duration(i) * 130 * time.Microsecond},
			func(m *Machine, l *actLog) error {
				for k := 0; k < reqs; k++ {
					if err := st.Send(ether.Packet{Dst: server, Type: ether.Word(i*100 + k)}); err != nil {
						return err
					}
					if i == 0 && k%2 == 1 && k/2 < beacons {
						if err := st.Send(ether.Packet{Dst: ether.Broadcast, Type: ether.Word(beacon + k/2)}); err != nil {
							return err
						}
					}
					clk.Advance(time.Duration((i+1)*(k%4+1)) * 45 * time.Microsecond)
				}
				poll := time.Duration(0)
				if i%2 == 1 {
					poll = 400 * time.Microsecond
				}
				await(m, l, st, reqs, poll)
				return nil
			})
	}

	// The watcher sits in the queue on a far deadline that every beacon
	// arrival pulls forward.
	wclk := sim.NewClock()
	wst := attach(watcher, wclk)
	add(MachineConfig{Name: "watcher", Clock: wclk, Station: wst}, func(m *Machine, l *actLog) error {
		got := map[ether.Word]bool{}
		for len(got) < beacons {
			l.sync(m)
			if p, ok := wst.Recv(); ok {
				got[p.Type] = true
				continue
			}
			wclk.RequestWake(wclk.Now() + 5*time.Millisecond)
			l.idle(m)
		}
		return nil
	})

	tclk := sim.NewClock()
	add(MachineConfig{Name: "timer", Clock: tclk, StartAt: 10 * time.Microsecond}, func(m *Machine, l *actLog) error {
		for k := 1; k <= 12; k++ {
			tclk.RequestWake(time.Duration(k) * 333 * time.Microsecond)
			l.idle(m)
		}
		return nil
	})

	if err := eng.Run(); err != nil {
		t.Fatalf("fleet run (workers=%d): %v", workers, err)
	}
	if !drained {
		t.Fatal("server was never drained")
	}
	var all []string
	for _, l := range logs {
		all = append(all, l.lines...)
	}
	return strings.Join(all, "\n"), fm.Stats()
}

// TestScheduleUnchanged pins the schedule itself, not just its replay:
// every activation's machine, granted wake and horizon must hash to the
// digest the rescanning engine produced, at one worker and at eight.
func TestScheduleUnchanged(t *testing.T) {
	for _, workers := range []int{1, 8} {
		log, fs := scheduleRun(t, workers)
		if fs.Dupped == 0 || fs.Delayed == 0 {
			t.Fatalf("workers=%d: fault model duplicated %d and delayed %d deliveries; the fleet must exercise both", workers, fs.Dupped, fs.Delayed)
		}
		sum := sha256.Sum256([]byte(log))
		got := hex.EncodeToString(sum[:8])
		if got != scheduleDigest {
			t.Fatalf("workers=%d: activation log digest %s, want %s (%d activations)\n%s", workers, got, scheduleDigest, strings.Count(log, "\n")+1, log)
		}
	}
}

// idleFleet runs parked daemons, each waiting with no deadline on its own
// station, plus one machine whose program is body. The parked machines stay
// out of the event queue, so every window body opens with tick is a
// singleton — the engine's common case.
func idleFleet(tb testing.TB, parked int, body func(m *Machine)) {
	tb.Helper()
	net := ether.New(nil)
	eng := New(Medium(net))
	for i := 0; i < parked; i++ {
		clk := sim.NewClock()
		st, err := net.Attach(ether.Addr(i + 1))
		if err != nil {
			tb.Fatal(err)
		}
		st.SetClock(clk)
		eng.Add(MachineConfig{Name: fmt.Sprintf("idle%d", i), Clock: clk, Station: st, Daemon: true,
			Program: func(m *Machine) error {
				for !m.Draining() {
					m.Idle()
				}
				return nil
			}})
	}
	eng.Add(MachineConfig{Name: "ticker", Clock: sim.NewClock(), StartAt: time.Millisecond,
		Program: func(m *Machine) error {
			body(m)
			return nil
		}})
	if err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
}

// tick idles the machine on a deadline one millisecond ahead: one window.
func tick(m *Machine) {
	m.Clock().RequestWake(m.Clock().Now() + time.Millisecond)
	m.Idle()
}

// BenchmarkWindow reports the host cost of one steady-state window in a
// fleet of a hundred parked machines and one ticking on a timer.
func BenchmarkWindow(b *testing.B) {
	b.ReportAllocs()
	idleFleet(b, 100, func(m *Machine) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick(m)
		}
		b.StopTimer()
	})
}

// TestSingletonWindowAllocatesNothing pins the engine's steady state: a
// window that runs one machine, among a hundred parked ones, allocates
// nothing on the host.
func TestSingletonWindowAllocatesNothing(t *testing.T) {
	allocs := -1.0
	idleFleet(t, 100, func(m *Machine) {
		tick(m) // the first windows size the engine's reusable buffers
		allocs = testing.AllocsPerRun(100, func() { tick(m) })
	})
	if allocs != 0 {
		t.Fatalf("a singleton window allocates %v times, want 0", allocs)
	}
}

// TestPollUntil pins the actor contract's loop: a condition that already
// holds costs no poll, a poll that did no work parks the machine until its
// requested deadline, and the first poll error ends the loop.
func TestPollUntil(t *testing.T) {
	eng := New(Medium(ether.New(nil)))
	clk := sim.NewClock()
	boom := errors.New("boom")
	eng.Add(MachineConfig{Name: "m", Clock: clk, Program: func(m *Machine) error {
		if err := m.PollUntil(func() bool { return true }, func() (bool, error) {
			t.Error("polled although done already held")
			return true, nil
		}); err != nil {
			return err
		}
		// Four polls, every other one idle on a deadline a millisecond out:
		// two parks, two milliseconds.
		polls := 0
		if err := m.PollUntil(func() bool { return polls == 4 }, func() (bool, error) {
			polls++
			clk.RequestWake(clk.Now() + time.Millisecond)
			return polls%2 == 0, nil
		}); err != nil {
			return err
		}
		if now := clk.Now(); now != 2*time.Millisecond {
			t.Errorf("clock at %v after two idle polls, want 2ms", now)
		}
		if err := m.PollUntil(func() bool { return false }, func() (bool, error) { return true, boom }); !errors.Is(err, boom) {
			t.Errorf("PollUntil returned %v, want the poll's error", err)
		}
		return nil
	}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
