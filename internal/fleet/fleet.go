// Package fleet is the deterministic discrete-event scheduler that runs
// many interacting Altos on one virtual time axis. It succeeds the
// single-machine sim.Clock discipline: each machine is an actor that runs
// until it blocks on a timer, a disk rotation, or an ether delivery, then
// yields its next wake time into the engine's event queue.
//
// The event queue is a min-heap of machines keyed on (effective wake,
// machine sequence), where a machine's effective wake is its yielded
// deadline capped by the earliest delivery held for its stations. It
// changes only for the machines a window can have moved: those that ran,
// and those the medium reports had a delivery held for them
// (ether.Network.TakeGained). A machine waiting on nothing stays out of it.
//
// The engine executes in conservative lockstep. At every barrier it opens
// a window [T, T+L) from the earliest wake T, where the lookahead L is the
// ether's minimum propagation latency (ether.MinLatency): no send starting
// inside the window can arrive inside it, so every machine whose wake falls
// in the window can run concurrently without risking a causality
// violation. Machines execute across the shared worker pool, sim.ForEach;
// because each activation depends only on the machine's own state and on
// arrivals certified by the window horizon (see Network.SetHorizon), a run
// is byte-identically replayable across repeated runs and across -workers
// counts.
package fleet

import (
	"container/heap"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
)

// never is the wake time of a machine blocked with no pending deadline:
// it runs again only when a delivery is scheduled for it (or the fleet
// drains, for daemons).
const never = time.Duration(1<<63 - 1)

// maxWindows bounds the number of windows an engine opens before it gives
// up with ErrRoundCap.
const maxWindows = 4_000_000

// Errors.
var (
	// ErrRoundCap reports that the engine exceeded its window budget
	// without the fleet finishing.
	ErrRoundCap = errors.New("fleet: round cap exceeded")
	// ErrStalled reports a fleet where some non-daemon machine blocked
	// forever: every live machine waits on a delivery and no delivery is
	// scheduled.
	ErrStalled = errors.New("fleet: stalled")
)

// Engine schedules a set of machines over simulated time.
type Engine struct {
	workers    int
	maxWindows int // window budget: maxWindows, lowered only by tests
	net        *ether.Network

	machines []*Machine
	owner    map[*ether.Station]*Machine // every machine's stations
	queue    wakeQueue                   // the event queue: machines with a finite effective wake
	live     int                         // machines whose program has not returned
	daemons  int                         // live machines that are daemons
	batch    []*Machine                  // the window being run
	gained   []*ether.Station            // reused buffer for Network.TakeGained
	step     func(i int)                 // steps batch[i]; built once, so a window allocates nothing
	draining bool
	horizon  time.Duration
	steps    atomic.Int64
	windows  int64
}

// Option configures an Engine.
type Option func(*Engine)

// Workers sets the worker-pool width for windowed execution (default 1).
// The schedule is byte-identical for every width; workers only change how
// much of a window runs wall-clock-concurrently.
func Workers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// Medium hands the engine the network the fleet communicates over. The
// engine switches it into fleet mode and publishes every window's horizon
// to it, which is what gates deliveries to certified arrivals.
func Medium(n *ether.Network) Option {
	return func(e *Engine) { e.net = n }
}

// New creates a windowed (parallel lockstep) engine.
func New(opts ...Option) *Engine {
	e := &Engine{workers: 1, maxWindows: maxWindows, owner: map[*ether.Station]*Machine{}}
	for _, o := range opts {
		o(e)
	}
	if e.net != nil {
		e.net.SetFleetMode(true)
	}
	e.step = func(i int) { e.stepAt(e.batch[i], e.batch[i].effWake) }
	return e
}

// Add registers a machine with the engine. Machines are stepped and
// tie-broken in creation order; creation order is part of the schedule and
// must itself be deterministic. Every station must be attached to the
// engine's Medium: the medium is what tells the engine a delivery is due.
func (e *Engine) Add(cfg MachineConfig) *Machine {
	if cfg.Clock == nil {
		panic("fleet: machines require their own Clock")
	}
	var sts []*ether.Station
	if cfg.Station != nil {
		sts = append(sts, cfg.Station)
	}
	sts = append(sts, cfg.Stations...)
	m := &Machine{
		name:    cfg.Name,
		idx:     len(e.machines),
		daemon:  cfg.Daemon,
		clock:   cfg.Clock,
		sts:     sts,
		program: cfg.Program,
		wake:    cfg.StartAt,
		horizon: never,
		pos:     -1,
	}
	for _, st := range sts {
		if st.Network() != e.net {
			panic(fmt.Sprintf("fleet: %s: station %d is not on the engine's medium", cfg.Name, st.Addr()))
		}
		e.owner[st] = m
	}
	e.machines = append(e.machines, m)
	if m.daemon {
		e.daemons++
	}
	e.live++
	return m
}

// Run executes the fleet to completion: every non-daemon machine's program
// has returned, daemons have been drained, or an error or budget stop
// occurred. It must be called exactly once.
func (e *Engine) Run() (err error) {
	for _, m := range e.machines {
		m.start()
	}
	if err = e.loopWindows(); err != nil {
		e.abortAll()
	}
	return err
}

// loopWindows is the conservative parallel schedule: open a lookahead
// window from the earliest wake in the queue, run every machine inside it,
// and requeue only what the window can have moved.
func (e *Engine) loopWindows() error {
	e.requeueAll()
	for round := 0; ; round++ {
		if e.live == 0 {
			return nil
		}
		if round >= e.maxWindows {
			return fmt.Errorf("%w after %d windows", ErrRoundCap, round)
		}
		if len(e.queue) == 0 {
			// Every live machine is blocked on a delivery that will never
			// come. For a fleet of pure daemons that is the normal end:
			// drain them so they can observe Draining and return.
			if e.live == e.daemons {
				if e.draining {
					return fmt.Errorf("fleet: daemons %s did not exit on drain", e.liveNames())
				}
				e.draining = true
				e.horizon = never
				for _, m := range e.machines {
					if !m.done {
						e.stepAt(m, m.clock.Now())
						if m.done {
							e.retire(m)
							if m.err != nil {
								return m.err
							}
						}
					}
				}
				e.requeueAll()
				continue
			}
			return fmt.Errorf("%w: %s blocked forever", ErrStalled, e.liveNames())
		}
		horizon := e.queue[0].effWake + ether.MinLatency
		e.horizon = horizon
		if e.net != nil {
			e.net.SetHorizon(horizon)
		}
		e.batch = e.batch[:0]
		for len(e.queue) > 0 && e.queue[0].effWake < horizon {
			e.batch = append(e.batch, heap.Pop(&e.queue).(*Machine))
		}
		e.windows++
		sim.ForEach(len(e.batch), e.workers, e.step)
		if err := e.settle(); err != nil {
			return err
		}
	}
}

// settle folds the window just run back into the queue. Only two kinds of
// machine can have a new effective wake: those that ran, and those whose
// stations had a delivery held for them by a sender that ran. Every other
// machine's wake, clock and held deliveries are untouched.
func (e *Engine) settle() error {
	var failed *Machine
	for _, m := range e.batch {
		if !m.done {
			e.requeue(m)
			continue
		}
		e.retire(m)
		// Lowest creation index first, so the choice does not depend on
		// which worker finished when; no machine outside the window can
		// have failed.
		if m.err != nil && (failed == nil || m.idx < failed.idx) {
			failed = m
		}
	}
	if failed != nil {
		return failed.err
	}
	if e.net != nil {
		e.gained = e.net.TakeGained(e.gained[:0])
		for _, st := range e.gained {
			if m := e.owner[st]; m != nil && !m.done {
				e.requeue(m)
			}
		}
	}
	return nil
}

// requeue recomputes a live machine's effective wake — its yielded
// deadline, capped by the earliest delivery held for any of its stations
// but never before its own clock — and fixes its place in the queue. A
// machine that waits on nothing leaves the queue until a delivery is held
// for it. The key (effWake, idx) is a total order, so the queue's order,
// and with it the schedule, does not depend on the order of requeues.
func (e *Engine) requeue(m *Machine) {
	w := m.wake
	for _, st := range m.sts {
		if a, ok := st.EarliestArrival(); ok {
			if now := m.clock.Now(); a < now {
				a = now
			}
			if a < w {
				w = a
			}
		}
	}
	m.effWake = w
	switch {
	case w == never:
		if m.pos >= 0 {
			heap.Remove(&e.queue, m.pos)
		}
	case m.pos >= 0:
		heap.Fix(&e.queue, m.pos)
	default:
		heap.Push(&e.queue, m)
	}
}

// requeueAll requeues every live machine: at the start of a run and after
// the drain, the two points where anything may have moved.
func (e *Engine) requeueAll() {
	if e.net != nil {
		e.gained = e.net.TakeGained(e.gained[:0])
	}
	for _, m := range e.machines {
		if !m.done {
			e.requeue(m)
		}
	}
}

// retire removes a finished machine from the live counts.
func (e *Engine) retire(m *Machine) {
	e.live--
	if m.daemon {
		e.daemons--
	}
}

// stepAt switches into one parked machine at the given wake time and
// returns when it parks again (or its program returns).
func (e *Engine) stepAt(m *Machine, wake time.Duration) {
	e.steps.Add(1)
	m.msg = resumeMsg{wake: wake, horizon: e.horizon, draining: e.draining}
	m.next()
}

// Steps returns the number of machine activations the engine has performed.
// The count is a pure function of the schedule, so it is identical across
// runs and worker counts — the deterministic numerator for events/second.
func (e *Engine) Steps() int64 { return e.steps.Load() }

// Windows returns the number of lookahead windows the engine has opened
// (the drain is not one). Like Steps it is a pure function of the schedule;
// Steps/Windows is the mean number of machines a window could run at once,
// the parallelism the schedule actually offers.
func (e *Engine) Windows() int64 { return e.windows }

// abortAll unwinds every machine that has not finished. A coroutine that
// is never stopped would keep its goroutine for the life of the process.
func (e *Engine) abortAll() {
	for _, m := range e.machines {
		if !m.done {
			m.stop()
		}
	}
}

// liveNames lists the unfinished machines for error messages.
func (e *Engine) liveNames() string {
	var names []string
	for _, m := range e.machines {
		if !m.done {
			names = append(names, m.name)
		}
	}
	return strings.Join(names, ", ")
}

// wakeQueue is a container/heap min-heap of machines keyed on
// (effWake, idx); each machine tracks its own position for Fix and Remove.
type wakeQueue []*Machine

func (q wakeQueue) Len() int { return len(q) }

func (q wakeQueue) Less(i, j int) bool {
	if q[i].effWake != q[j].effWake {
		return q[i].effWake < q[j].effWake
	}
	return q[i].idx < q[j].idx
}

func (q wakeQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i
	q[j].pos = j
}

func (q *wakeQueue) Push(x any) {
	m := x.(*Machine)
	m.pos = len(*q)
	*q = append(*q, m)
}

func (q *wakeQueue) Pop() any {
	old := *q
	m := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	m.pos = -1
	return m
}
