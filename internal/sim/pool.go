package sim

import (
	"sync"
	"sync/atomic"
)

// ForEach calls f(i) for every i in [0, n) and returns when all calls have.
// With workers or n at most 1 it runs inline, in index order, spawning
// nothing. Otherwise up to workers goroutines claim indices off an atomic
// cursor. Which goroutine runs which index is up to the host scheduler, so f
// must write its result only to slot i: the results then come out the same
// at every width. The fleet engine's windows, the crash explorer's points
// and the trace merger's machines all run through here.
func ForEach(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
