package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock reads %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if got, want := c.Now(), 5*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockIgnoresNegativeAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got, want := c.Now(), time.Second; got != want {
		t.Fatalf("Now() = %v after negative advance, want %v", got, want)
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock()
	c.Advance(time.Minute)
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v after Reset, want 0", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(5 * time.Millisecond)
	if got, want := c.Now(), 5*time.Millisecond; got != want {
		t.Fatalf("Now() = %v after AdvanceTo, want %v", got, want)
	}
	c.AdvanceTo(2 * time.Millisecond) // in the past: ignored
	if got, want := c.Now(), 5*time.Millisecond; got != want {
		t.Fatalf("Now() = %v after backward AdvanceTo, want %v", got, want)
	}
	c.AdvanceTo(5 * time.Millisecond) // at the present: ignored
	if got, want := c.Now(), 5*time.Millisecond; got != want {
		t.Fatalf("Now() = %v after no-op AdvanceTo, want %v", got, want)
	}
	c.AdvanceTo(7 * time.Millisecond)
	if got, want := c.Now(), 7*time.Millisecond; got != want {
		t.Fatalf("Now() = %v after second AdvanceTo, want %v", got, want)
	}
}

func TestClockWakeZeroValue(t *testing.T) {
	var c Clock
	if d, ok := c.NextWake(); ok {
		t.Fatalf("zero clock has wake %v pending, want none", d)
	}
}

func TestClockRequestWakeKeepsMinimum(t *testing.T) {
	c := NewClock()
	c.RequestWake(40 * time.Millisecond)
	c.RequestWake(10 * time.Millisecond)
	c.RequestWake(25 * time.Millisecond) // later than pending: ignored
	d, ok := c.NextWake()
	if !ok || d != 10*time.Millisecond {
		t.Fatalf("NextWake() = %v, %v; want 10ms, true", d, ok)
	}
}

func TestClockRequestWakeAtZero(t *testing.T) {
	// A deadline at t=0 is a valid wake and must be distinguishable from
	// "no wake pending" despite the zero-value encoding.
	c := NewClock()
	c.RequestWake(0)
	d, ok := c.NextWake()
	if !ok || d != 0 {
		t.Fatalf("NextWake() = %v, %v; want 0, true", d, ok)
	}
}

func TestClockClearWake(t *testing.T) {
	c := NewClock()
	c.RequestWake(time.Second)
	c.ClearWake()
	if d, ok := c.NextWake(); ok {
		t.Fatalf("NextWake() = %v after ClearWake, want none", d)
	}
	c.RequestWake(2 * time.Second) // a fresh request after clearing sticks
	if d, ok := c.NextWake(); !ok || d != 2*time.Second {
		t.Fatalf("NextWake() = %v, %v after re-request; want 2s, true", d, ok)
	}
}

func TestClockResetClearsWake(t *testing.T) {
	c := NewClock()
	c.Advance(time.Minute)
	c.RequestWake(2 * time.Minute)
	c.Reset()
	if d, ok := c.NextWake(); ok {
		t.Fatalf("NextWake() = %v after Reset, want none", d)
	}
}

func TestClockConcurrentRequestWake(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.RequestWake(time.Duration(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	d, ok := c.NextWake()
	if !ok || d != 1000 {
		t.Fatalf("NextWake() = %v, %v after concurrent requests; want 1000, true", d, ok)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), 8000*time.Microsecond; got != want {
		t.Fatalf("Now() = %v after concurrent advances, want %v", got, want)
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	w := Watch(c)
	c.Advance(250 * time.Millisecond)
	if got, want := w.Elapsed(), 250*time.Millisecond; got != want {
		t.Fatalf("Elapsed() = %v, want %v", got, want)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		n := 1 + int(seed%64)
		p := NewRand(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandBoolExtremes(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 50; i++ {
		if r.Bool(0, 10) {
			t.Fatal("Bool(0, 10) returned true")
		}
		if !r.Bool(10, 10) {
			t.Fatal("Bool(10, 10) returned false")
		}
	}
}

// TestForEach: every index runs exactly once at any width, and at one
// worker the calls run inline in index order.
func TestForEach(t *testing.T) {
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v, want 0..4", order)
		}
	}
	for _, workers := range []int{0, 2, 8, 100} {
		hits := make([]int, 37)
		ForEach(len(hits), workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	ForEach(0, 4, func(int) { t.Fatal("called with n = 0") })
}
