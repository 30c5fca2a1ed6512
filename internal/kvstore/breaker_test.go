package kvstore

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for breaker cooldown tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 0}, newFakeClock().Now)
	for i := 0; i < 10; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatal("disabled breaker rejected a call")
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Errorf("State = %v, want closed", got)
	}
	if s := b.Stats(); s.Trips != 0 || s.Rejections != 0 {
		t.Errorf("disabled breaker counted: %+v", s)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond}, clk.Now)

	// Two failures: still closed, still allowing.
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatalf("breaker left closed early: state=%v", b.State())
	}
	// Third consecutive failure trips it.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("State after threshold = %v, want open", b.State())
	}
	if b.Allow() {
		t.Error("open breaker allowed a call before cooldown")
	}
	s := b.Stats()
	if s.Trips != 1 || s.Rejections != 1 {
		t.Errorf("stats after trip = %+v, want 1 trip, 1 rejection", s)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond}, clk.Now)
	// The threshold counts *consecutive* failures: a success in between
	// restarts the count, so 2 fail + success + 2 fail stays closed.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("State = %v, want closed (success must reset the count)", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("State after third consecutive failure = %v, want open", b.State())
	}
}

func TestBreakerHalfOpenProbeSuccess(t *testing.T) {
	clk := newFakeClock()
	cooldown := 50 * time.Millisecond
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: cooldown}, clk.Now)

	b.Failure() // trip
	if b.State() != BreakerOpen {
		t.Fatalf("State = %v, want open", b.State())
	}
	// Just shy of the cooldown: still rejecting.
	clk.Advance(cooldown - time.Nanosecond)
	if b.Allow() {
		t.Fatal("breaker admitted a call before the cooldown elapsed")
	}
	// Cooldown elapsed: exactly one probe gets through.
	clk.Advance(time.Nanosecond)
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("State during probe = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Error("breaker admitted a second call while the probe was in flight")
	}
	// Probe succeeds: breaker closes.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("State after probe success = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Error("closed breaker rejected a call")
	}
	if s := b.Stats(); s.Resets != 1 {
		t.Errorf("Resets = %d, want 1", s.Resets)
	}
}

func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	clk := newFakeClock()
	cooldown := 50 * time.Millisecond
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: cooldown}, clk.Now)

	b.Failure() // trip
	clk.Advance(cooldown)
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe")
	}
	// Probe fails: breaker re-opens and the cooldown re-arms from *now* —
	// an immediately following call must be rejected for a full new period.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("State after probe failure = %v, want open", b.State())
	}
	if b.Allow() {
		t.Error("breaker admitted a call right after a failed probe")
	}
	clk.Advance(cooldown - time.Nanosecond)
	if b.Allow() {
		t.Error("re-armed cooldown elapsed early")
	}
	clk.Advance(time.Nanosecond)
	if !b.Allow() {
		t.Fatal("breaker rejected the second probe")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("State after recovery = %v, want closed", b.State())
	}
	s := b.Stats()
	if s.Trips != 1 || s.Resets != 1 {
		t.Errorf("stats = %+v, want 1 trip (probe failure re-opens without re-counting a trip), 1 reset", s)
	}
}

func TestBreakerHalfOpenProbeReleaseOnFailureAllowsNext(t *testing.T) {
	// A failed probe must clear the probing flag; otherwise the breaker
	// would deadlock rejecting everything forever.
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond}, clk.Now)
	for round := 0; round < 3; round++ {
		b.Failure()
		clk.Advance(time.Millisecond)
		if !b.Allow() {
			t.Fatalf("round %d: probe rejected", round)
		}
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "BreakerState(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestBreakerConcurrentUse drives one breaker the way Resilient and /stats
// share it: several goroutines run Allow → Success/Failure while another
// reads Stats. Under -race it holds every state-machine field to its mutex
// and every counter to its atomic methods.
func TestBreakerConcurrentUse(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Millisecond}, clk.Now)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = b.Stats() // State and the counters, as /stats reads them
		}
	}()
	const workers, calls = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			admitted := 0
			for i := 0; i < calls; i++ {
				if !b.Allow() {
					clk.Advance(time.Millisecond / 2) // two rejections end a cooldown
					continue
				}
				// Failure, Failure, Success: two in a row trip the breaker,
				// and each probe's outcome cycles through all three.
				if admitted++; admitted%3 == 0 {
					b.Success()
				} else {
					b.Failure()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if s := b.Stats(); s.Trips == 0 || s.Resets == 0 || s.Rejections == 0 {
		t.Errorf("stats = %+v: the run never went round the open/half-open cycle", s)
	}
}
