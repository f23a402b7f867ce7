package main

import (
	"fmt"
	"time"

	"altoos/internal/cluster"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
)

// actor is the benchmark's side of one fleet machine. Every park the
// machine's program makes goes through it, so a traced run can time the
// program between parks: whatever host time Engine.Run takes beyond the
// sum of those stretches is the engine's own.
type actor struct {
	m      *fleet.Machine
	traced bool

	running bool
	resumed time.Time
	busy    time.Duration // host time the program ran between parks

	clientPoll callStat // fileserver.Client.Poll
	serverPoll callStat // fileserver.Server.Poll or cluster.Replica.Poll

	exited    bool // a daemon returned on drain
	divergent int  // files an auditor found its shard group disagreeing on

	// deadline, when not 0, is the simulated time at which an auditor gives
	// up: its next park at or past it ends its program with an error.
	deadline time.Duration
}

// pastDeadline unwinds an auditor whose clock has passed its deadline, out
// of whatever RPC loop of the cluster package it is parked in.
type pastDeadline struct{}

// callStat accumulates host time over calls into one layer entry point.
type callStat struct {
	n int64
	d time.Duration
}

func (c *callStat) add(o callStat) { c.n += o.n; c.d += o.d }

// perCall returns the mean host time per call in the given unit.
func (c callStat) perCall(unit time.Duration) float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.d) / float64(c.n) / float64(unit)
}

// begin is called first thing in the program, end when it returns (also
// when the engine unwinds it).
func (a *actor) begin(m *fleet.Machine) {
	a.m = m
	a.resume()
}

func (a *actor) end() { a.pause() }

func (a *actor) resume() {
	if a.traced {
		a.running = true
		a.resumed = time.Now()
	}
}

func (a *actor) pause() {
	if a.traced && a.running {
		a.running = false
		a.busy += time.Since(a.resumed)
	}
}

func (a *actor) sync() {
	a.pause()
	a.m.Sync()
	a.resume()
	a.checkDeadline()
}

func (a *actor) idle() {
	a.pause()
	a.m.Idle()
	a.resume()
	a.checkDeadline()
}

func (a *actor) checkDeadline() {
	if a.deadline > 0 && a.m.Clock().Now() >= a.deadline {
		panic(pastDeadline{})
	}
}

// poll is one closed-loop step on a file server client: sync, poll, idle
// if the poll moved nothing.
func (a *actor) poll(c *fileserver.Client) error {
	a.sync()
	var worked bool
	var err error
	if a.traced {
		t := time.Now()
		worked, err = c.Poll()
		a.clientPoll.n++
		a.clientPoll.d += time.Since(t)
	} else {
		worked, err = c.Poll()
	}
	if err != nil {
		return err
	}
	if !worked {
		a.idle()
	}
	return nil
}

// wait drives a client until its current request completes. It has the
// shape of cluster.WaitFunc.
func (a *actor) wait(c *fileserver.Client) error {
	for !c.Done() {
		if err := a.poll(c); err != nil {
			return err
		}
	}
	_, err := c.Result()
	return err
}

// closed drives a client whose session is closing until the connection is
// gone.
func (a *actor) closed(c *fileserver.Client) error {
	for c.Conn().State() != pup.StateClosed {
		if err := a.poll(c); err != nil {
			return err
		}
	}
	return nil
}

// serve is one step of a server's loop.
func (a *actor) serve(poll func() (bool, error)) (bool, error) {
	if !a.traced {
		return poll()
	}
	t := time.Now()
	worked, err := poll()
	a.serverPoll.n++
	a.serverPoll.d += time.Since(t)
	return worked, err
}

// serveProgram is a file server daemon: poll until the fleet drains.
func (a *actor) serveProgram(poll func() (bool, error)) func(*fleet.Machine) error {
	return func(m *fleet.Machine) error {
		a.begin(m)
		defer a.end()
		for !m.Draining() {
			a.sync()
			worked, err := a.serve(poll)
			if err != nil {
				return err
			}
			if !worked {
				a.idle()
			}
		}
		a.exited = true
		return nil
	}
}

// auditProgram is cluster.Replica.AuditProgram with its parks routed
// through the actor, so that they can be timed and the audit cut off at the
// actor's deadline; the benchmark's test checks that, short of the
// deadline, the two give the same schedule.
func (a *actor) auditProgram(r *cluster.Replica, startAt, interval time.Duration, quiet int) func(*fleet.Machine) error {
	return func(m *fleet.Machine) (err error) {
		a.begin(m)
		defer a.end()
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(pastDeadline); !ok {
					panic(p) // the engine's own abort, or a real fault
				}
				err = fmt.Errorf("%s: audit still running at %.6g sim s", r.Name(), a.deadline.Seconds())
			}
		}()
		next := startAt
		clean := 0
		for !m.Draining() {
			a.sync()
			worked, err := a.serve(r.Poll)
			if err != nil {
				return err
			}
			if clean < quiet && r.Clock().Now() >= next {
				out, err := r.AuditRound(a.sync, a.idle)
				if err != nil {
					return err
				}
				a.divergent += out.Divergent
				if out.Divergent == 0 {
					clean++
				} else {
					clean = 0
				}
				next = r.Clock().Now() + interval
				worked = true
			}
			if !worked {
				if clean < quiet {
					r.Clock().RequestWake(next)
				}
				a.idle()
			}
		}
		a.exited = true
		return nil
	}
}

// fleetStats sums the actors' timings after Engine.Run has returned.
type fleetStats struct {
	run        time.Duration // host time inside Engine.Run
	busy       time.Duration // host time the programs ran between parks
	steps      int64
	clientPoll callStat
	serverPoll callStat
}

func (s *fleetStats) add(eng *fleet.Engine, run time.Duration, actors []*actor) {
	s.run += run
	s.steps += eng.Steps()
	for _, a := range actors {
		s.busy += a.busy
		s.clientPoll.add(a.clientPoll)
		s.serverPoll.add(a.serverPoll)
	}
}

// report writes the fleet and transport layer metrics. Host timings are
// meaningful only when the actors were traced.
func (s *fleetStats) report(o *outcome, traced bool) {
	o.count("fleet.steps", s.steps)
	if !traced {
		return
	}
	o.layer["fleet.run_s"] = s.run.Seconds()
	if s.steps > 0 {
		o.layer["fleet.host_us_per_step"] = float64(s.run) / float64(s.steps) / float64(time.Microsecond)
	}
	if s.run > 0 {
		o.layer["fleet.engine_share"] = float64(s.run-s.busy) / float64(s.run)
	}
	o.layer["pup.client_poll_us"] = s.clientPoll.perCall(time.Microsecond)
	o.layer["fileserver.server_poll_us"] = s.serverPoll.perCall(time.Microsecond)
}
