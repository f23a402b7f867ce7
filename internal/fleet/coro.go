//go:build go1.23

package fleet

import "iter"

// This file holds the engine's one use of iter.Pull, which arrived in Go
// 1.23. The module still declares go 1.22, because raising it would make the
// host-cost benchmark's build (a separate module that requires this one)
// rewrite its own go.mod; the build constraint raises the language version
// of this file alone, so go vet's stdversion check accepts the call. Building
// the module therefore needs a go1.23 or newer toolchain.

// start makes the machine a coroutine: next runs its program until the
// program parks (yields) or returns, stop unwinds a parked program. The
// engine switches to a machine and back with no goroutine handoff.
func (m *Machine) start() {
	m.next, m.stop = iter.Pull(func(yield func(struct{}) bool) {
		m.yield = yield
		m.run()
	})
}
