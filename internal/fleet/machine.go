package fleet

import (
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
)

// MachineConfig describes one actor in the fleet.
type MachineConfig struct {
	// Name identifies the machine in errors and diagnostics.
	Name string
	// Clock is the machine's own clock (required): each machine carries
	// its local time.
	Clock *sim.Clock
	// Station is the machine's ether attachment, if any. The engine reads
	// its earliest scheduled arrival at every barrier so a machine blocked
	// waiting for traffic wakes exactly when the packet arrives.
	Station *ether.Station
	// Stations lists additional attachments for machines with more than one
	// (a cluster replica serves on one station and audits peers from
	// another). The engine watches the earliest arrival across all of them.
	Stations []*ether.Station
	// Daemon marks a machine that serves others and never finishes on its
	// own (a file server). When only daemons remain, the engine sets the
	// draining flag and wakes them one last time; a daemon's program polls
	// Draining and returns.
	Daemon bool
	// StartAt is the machine's first wake time — the boot stagger.
	StartAt time.Duration
	// Program is the machine's life: called once on first wake, it runs
	// until it parks (Sync, Idle) or returns. Its error fails the
	// whole fleet.
	Program func(*Machine) error
}

// resumeMsg is what the engine hands a parked machine: the time to resume
// at, the current window horizon, and the drain flag.
type resumeMsg struct {
	wake     time.Duration
	horizon  time.Duration
	draining bool
}

// fleetAbort unwinds a machine's program when the engine shuts the fleet
// down after another machine's error.
type fleetAbort struct{}

// Machine is one actor: a coroutine running its program. The engine
// switches into it (next) and it switches back when it parks (yield), so
// exactly one of (engine, machine) runs at a time per machine — the Alto's
// own discipline of activities handing control to each other explicitly —
// and every field handoff is ordered by the switch.
type Machine struct {
	name    string
	idx     int
	daemon  bool
	clock   *sim.Clock
	sts     []*ether.Station
	program func(*Machine) error

	next  func() (struct{}, bool) // engine side: run until the next park
	stop  func()                  // engine side: unwind a parked machine
	yield func(struct{}) bool     // machine side: park; false on stop

	// Engine-side view: written by the machine before it yields, read by
	// the engine after; and vice versa through msg.
	msg      resumeMsg
	wake     time.Duration
	effWake  time.Duration
	pos      int // index in the engine's wakeQueue, -1 when not queued
	horizon  time.Duration
	draining bool
	aborted  bool
	done     bool
	err      error
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// Clock returns the machine's clock.
func (m *Machine) Clock() *sim.Clock { return m.clock }

// Draining reports whether the fleet is shutting down: every non-daemon
// machine has finished and the engine has woken the daemons to exit.
func (m *Machine) Draining() bool { return m.draining }

// Sync parks the machine if its local clock has reached the window horizon.
// The actor contract: call Sync before every observation of the ether
// (PollUntil is the contract's loop, written once). A machine is free to
// overrun the horizon on its own work (disk transfers routinely do), but
// before it looks at the wire again it must let the window catch up, or it
// would poll for packets that concurrently running machines may not have
// sent yet.
func (m *Machine) Sync() {
	for m.clock.Now() >= m.horizon {
		m.park(m.clock.Now())
	}
}

// Idle parks the machine until something is due: the earliest deadline its
// components requested on the clock (Clock.RequestWake), or — if none — the
// next delivery scheduled for its station, which the engine watches on the
// machine's behalf. Call it when a poll did no work.
func (m *Machine) Idle() {
	wake := never
	if d, ok := m.clock.NextWake(); ok {
		m.clock.ClearWake()
		if now := m.clock.Now(); d < now {
			d = now
		}
		wake = d
	}
	m.park(wake)
}

// PollUntil is the actor contract as code: until done reports true, Sync,
// run one poll, and Idle if the poll did no work. It returns the first
// error a poll reports. done is checked before every Sync, so a condition
// that already holds costs no park at all.
func (m *Machine) PollUntil(done func() bool, poll func() (bool, error)) error {
	for !done() {
		m.Sync()
		worked, err := poll()
		if err != nil {
			return err
		}
		if !worked {
			m.Idle()
		}
	}
	return nil
}

// park yields control to the engine with the given next wake time and
// returns when resumed. On resume the machine's clock jumps to the granted
// wake time — which may be later than requested, when the engine woke it
// for a delivery instead. A stop from the engine unwinds the program.
func (m *Machine) park(wake time.Duration) {
	m.wake = wake
	if !m.yield(struct{}{}) {
		panic(fleetAbort{})
	}
	m.apply()
}

// apply installs the engine's resume message into the machine's view.
func (m *Machine) apply() {
	m.draining = m.msg.draining
	m.horizon = m.msg.horizon
	if m.msg.wake < never {
		m.clock.AdvanceTo(m.msg.wake)
	}
}

// run is the coroutine body, entered on the machine's first wake: run the
// program and record how it ended. An abort unwinds without recording —
// the engine has stopped listening to the fleet.
func (m *Machine) run() {
	m.apply()
	err := m.invoke()
	if m.aborted {
		return
	}
	m.err = err
	m.done = true
}

// invoke runs the program, converting an engine abort into a quiet exit.
func (m *Machine) invoke() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fleetAbort); ok {
				m.aborted = true
				return
			}
			panic(r)
		}
	}()
	return m.program(m)
}
