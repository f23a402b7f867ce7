// Package fleet is the deterministic discrete-event scheduler that runs
// many interacting Altos on one virtual time axis. It succeeds the
// single-machine sim.Clock discipline: each machine is an actor that runs
// until it blocks on a timer, a disk rotation, or an ether delivery, then
// yields its next wake time into the engine's event queue.
//
// The engine executes in conservative lockstep. At every barrier it orders
// the pending wake entries by (sim-time, machine sequence) — the event
// queue — and opens a window [T, T+L) from the earliest wake T, where the
// lookahead L is the ether's minimum propagation latency
// (ether.MinLatency): no send starting inside the window can arrive inside
// it, so every machine whose wake falls in the window can run concurrently
// without risking a causality violation. Machines execute across the
// shared worker pool, sim.ForEach; because each
// activation depends only on the machine's own state and on arrivals
// certified by the window horizon (see Network.SetHorizon), a run is
// byte-identically replayable across repeated runs and across -workers
// counts.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
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
	batch    []*Machine  // the window being run
	step     func(i int) // steps batch[i]; built once, so a window allocates nothing
	draining bool
	horizon  time.Duration
	steps    atomic.Int64
	wg       sync.WaitGroup
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
	e := &Engine{workers: 1, maxWindows: maxWindows}
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
// must itself be deterministic.
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
		resume:  make(chan resumeMsg),
		yield:   make(chan struct{}),
	}
	e.machines = append(e.machines, m)
	return m
}

// Run executes the fleet to completion: every non-daemon machine's program
// has returned, daemons have been drained, or an error or budget stop
// occurred. It must be called exactly once.
func (e *Engine) Run() (err error) {
	for _, m := range e.machines {
		e.wg.Add(1)
		go func(m *Machine) {
			defer e.wg.Done()
			m.runner()
		}(m)
	}
	if err = e.loopWindows(); err != nil {
		e.abortAll()
	}
	e.wg.Wait()
	return err
}

// loopWindows is the conservative parallel schedule: order pending wakes,
// open a lookahead window from the earliest, run every machine inside it.
func (e *Engine) loopWindows() error {
	for round := 0; ; round++ {
		batch, live, daemonsOnly := e.pending()
		if live == 0 {
			return nil
		}
		if round >= e.maxWindows {
			return fmt.Errorf("%w after %d windows", ErrRoundCap, round)
		}
		if len(batch) == 0 {
			// Every live machine is blocked on a delivery that will never
			// come. For a fleet of pure daemons that is the normal end:
			// drain them so they can observe Draining and return.
			if daemonsOnly {
				if e.draining {
					return fmt.Errorf("fleet: daemons %s did not exit on drain", e.liveNames())
				}
				e.draining = true
				e.horizon = never
				for _, m := range e.machines {
					if !m.done {
						e.stepAt(m, m.clock.Now())
						if m.done && m.err != nil {
							return m.err
						}
					}
				}
				continue
			}
			return fmt.Errorf("%w: %s blocked forever", ErrStalled, e.liveNames())
		}
		horizon := batch[0].effWake + ether.MinLatency
		e.horizon = horizon
		if e.net != nil {
			e.net.SetHorizon(horizon)
		}
		cut := len(batch)
		for i, m := range batch {
			if m.effWake >= horizon {
				cut = i
				break
			}
		}
		e.runBatch(batch[:cut])
		if err := e.firstError(); err != nil {
			return err
		}
	}
}

// pending recomputes every live machine's effective wake — its yielded
// deadline, capped by the earliest delivery scheduled for its station —
// and returns the live machines as the event queue, ordered by
// (sim-time, machine sequence).
func (e *Engine) pending() (batch []*Machine, live int, daemonsOnly bool) {
	daemonsOnly = true
	for _, m := range e.machines {
		if m.done {
			continue
		}
		live++
		if !m.daemon {
			daemonsOnly = false
		}
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
		if w < never {
			batch = append(batch, m)
		}
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].effWake != batch[j].effWake {
			return batch[i].effWake < batch[j].effWake
		}
		return batch[i].idx < batch[j].idx
	})
	return batch, live, daemonsOnly
}

// runBatch executes one window's machines on the engine's worker pool:
// serially in event order at one worker, otherwise across sim.ForEach. The
// window barrier is ForEach's return.
func (e *Engine) runBatch(batch []*Machine) {
	e.batch = batch
	sim.ForEach(len(batch), e.workers, e.step)
}

// stepAt resumes one parked machine at the given wake time and blocks until
// it parks again (or its program returns).
func (e *Engine) stepAt(m *Machine, wake time.Duration) {
	e.steps.Add(1)
	m.resume <- resumeMsg{wake: wake, horizon: e.horizon, draining: e.draining}
	<-m.yield
}

// Steps returns the number of machine activations the engine has performed.
// The count is a pure function of the schedule, so it is identical across
// runs and worker counts — the deterministic numerator for events/second.
func (e *Engine) Steps() int64 { return e.steps.Load() }

// firstError returns the failed machine's error, lowest creation index
// first so the choice does not depend on which worker finished when.
func (e *Engine) firstError() error {
	for _, m := range e.machines {
		if m.done && m.err != nil {
			return m.err
		}
	}
	return nil
}

// abortAll unwinds every machine that has not finished.
func (e *Engine) abortAll() {
	for _, m := range e.machines {
		if !m.done {
			m.resume <- resumeMsg{abort: true}
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
