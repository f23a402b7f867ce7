package main

import (
	"time"

	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

// traceEvents is each machine's event-ring capacity in a traced run.
const traceEvents = 1 << 12

// newRecorders returns the per-machine recorders of a traced run, nil (no
// tracing at all) otherwise.
func newRecorders(cfg config) *scope.Fleet {
	if !cfg.traced {
		return nil
	}
	return scope.NewFleet(traceEvents)
}

// recorder returns the named machine's recorder, nil when untraced.
func recorder(recs *scope.Fleet, name string) *trace.Recorder {
	if recs == nil {
		return nil
	}
	return recs.Machine(name)
}

// The functions below read the counters and stats the layers already
// export into the outcome. Everything they record is simulated-domain, so
// it also goes into the digest.

func wireReport(o *outcome, wire *ether.Network, faults *ether.FaultMedium) {
	packets, words := wire.Stats()
	st := faults.Stats()
	o.count("ether.packets", packets)
	o.count("ether.words", words)
	o.count("ether.drops", st.Dropped)
	o.count("ether.corrupts", st.Corrupted)
}

func diskReport(o *outcome, drives ...*disk.Drive) {
	var sum disk.Stats
	for _, d := range drives {
		if d == nil {
			continue
		}
		s := d.Stats()
		sum.Ops += s.Ops
		sum.Chains += s.Chains
		sum.CheckFail += s.CheckFail
		sum.Busy += s.Busy
	}
	o.count("disk.ops", sum.Ops)
	o.count("disk.chains", sum.Chains)
	o.count("disk.check_fail", sum.CheckFail)
	o.fields = append(o.fields, field{"disk.busy_ns", int64(sum.Busy)})
	o.layer["disk.busy_sim_s"] += sum.Busy.Seconds()
}

func serverReport(o *outcome, stats ...fileserver.Stats) {
	var sum fileserver.Stats
	for _, s := range stats {
		sum.Sessions += s.Sessions
		sum.Stores += s.Stores
		sum.Fetches += s.Fetches
		sum.Digests += s.Digests
	}
	o.count("fileserver.sessions", sum.Sessions)
	o.count("fileserver.stores", sum.Stores)
	o.count("fileserver.fetches", sum.Fetches)
	o.count("fileserver.digests", sum.Digests)
}

// traceTotals sums what traced runs' recorders hold: the transport's
// retransmission counters, how many events tracing recorded, and what
// merging each fleet's per-machine recorders into one timeline costs.
type traceTotals struct {
	retrans, sends, events int64
	merge                  time.Duration
	merges                 int
}

func (t *traceTotals) add(recs *scope.Fleet) {
	ms := recs.Machines()
	for _, m := range ms {
		t.retrans += m.Rec.Counter("pup.retransmit")
		t.sends += m.Rec.Counter("pup.data.send")
		t.events += m.Rec.Snapshot().Events
	}
	start := time.Now()
	scope.Merge(ms, 2)
	t.merge += time.Since(start)
	t.merges++
}

func (t *traceTotals) report(o *outcome) {
	o.layer["pup.retransmits"] = float64(t.retrans)
	if t.retrans+t.sends > 0 {
		// The share of data and control sends that were retransmissions.
		o.layer["pup.retransmit_ratio"] = float64(t.retrans) / float64(t.retrans+t.sends)
	}
	o.layer["trace.events"] = float64(t.events)
	if t.merges > 0 {
		o.layer["scope.merge_ms"] = float64(t.merge) / float64(t.merges) / float64(time.Millisecond)
	}
}
