package experiments

import "errors"

// Round budgets for the shared-clock rigs: a transfer phase, and the
// teardown that waits out the close handshakes.
const (
	runRounds      = 4_000_000
	teardownRounds = 1_000_000
)

// errRoundCap reports a roundRobin loop that used up its budget; callers
// translate it into what never finished.
var errRoundCap = errors.New("experiments: round cap exceeded")

// roundRobin drives a shared-clock rig (E10, E11, E13): every machine
// shares the wire's clock, so the schedule is the paper's single-user poll
// loop (§2) written once for the whole room. Each round polls every machine
// once, in order; after the round, done decides whether the run is over. A
// poll's error ends the round at once — the machines after it are not
// polled again.
//
// These rigs stay off the windowed fleet engine on purpose: only on a
// shared clock do senders contend for the 3 Mb/s wire, which is what E11's
// wire-idle fraction and E13's saturation measure.
func roundRobin(rounds int, done func() bool, polls ...func() error) error {
	for round := 0; round < rounds; round++ {
		for _, poll := range polls {
			if err := poll(); err != nil {
				return err
			}
		}
		if done() {
			return nil
		}
	}
	return errRoundCap
}
