package kvstore

import (
	"fmt"
	"sync"
	"time"

	"vidrec/internal/metrics"
)

// Breaker is a per-backend circuit breaker: closed (normal operation) until
// Threshold consecutive failures, then open (every call rejected instantly —
// a dead store shard must not cost each request a full retry budget of
// timeouts), then half-open after Cooldown (exactly one probe is let through;
// its outcome decides between closing and re-opening). The pattern is the
// standard production answer to fail-fast serving over replicated KV
// backends; what is unusual here is the injected clock: the breaker never
// reads wall time, so the simulation harness can drive open→half-open
// transitions from its virtual clock and replay runs byte-identically.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	clock    func() time.Time // guarded by mu
	state    BreakerState     // guarded by mu
	failures int              // guarded by mu; consecutive failures while closed
	openedAt time.Time        // guarded by mu; when the breaker last tripped
	probing  bool             // guarded by mu; a half-open probe is in flight

	trips      metrics.Counter // closed→open transitions
	resets     metrics.Counter // half-open→closed transitions
	rejections metrics.Counter // calls refused while open
}

// BreakerConfig configures a Breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip the breaker. <= 0
	// disables the breaker entirely (Allow always true).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. 0 selects DefaultBreakerCooldown.
	Cooldown time.Duration
}

// DefaultBreakerCooldown is the open period before the first probe.
const DefaultBreakerCooldown = 100 * time.Millisecond

// BreakerState enumerates the state machine.
type BreakerState int

const (
	// BreakerClosed: requests flow, consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome decides.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ErrBreakerOpen is returned for operations rejected by an open breaker.
var ErrBreakerOpen = fmt.Errorf("kvstore: circuit breaker open")

// NewBreaker returns a closed breaker. clock supplies "now" for the cooldown
// timing; nil selects the wall clock (the simulation harness always injects
// its virtual clock instead).
func NewBreaker(cfg BreakerConfig, clock func() time.Time) *Breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if clock == nil {
		clock = time.Now
	}
	return &Breaker{cfg: cfg, clock: clock}
}

// SetClock replaces the breaker's time source. A nil fn restores the wall
// clock.
func (b *Breaker) SetClock(fn func() time.Time) {
	if fn == nil {
		fn = time.Now
	}
	b.mu.Lock()
	b.clock = fn
	b.mu.Unlock()
}

// Allow reports whether a call may proceed. While open it returns false until
// the cooldown elapses, at which point it admits exactly one probe (moving to
// half-open); further calls are rejected until that probe resolves through
// Success or Failure.
func (b *Breaker) Allow() bool {
	if b.cfg.Threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock().Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejections.Inc()
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			b.rejections.Inc()
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful call: in half-open it closes the breaker (the
// probe proved the backend healthy), in closed it clears the consecutive
// failure count.
func (b *Breaker) Success() {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.failures = 0
		b.probing = false
		b.resets.Inc()
	case BreakerClosed:
		b.failures = 0
	}
}

// Failure records a failed call: in half-open the probe failed and the
// breaker re-opens for another cooldown; in closed it counts toward the trip
// threshold.
func (b *Breaker) Failure() {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.clock()
		b.probing = false
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.state = BreakerOpen
			b.openedAt = b.clock()
			b.failures = 0
			b.trips.Inc()
		}
	}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStats is a point-in-time counter snapshot.
type BreakerStats struct {
	State      BreakerState
	Trips      uint64 // closed→open transitions
	Resets     uint64 // half-open→closed transitions
	Rejections uint64 // calls refused without touching the backend
}

// Stats returns a snapshot of the breaker's counters and state.
func (b *Breaker) Stats() BreakerStats {
	return BreakerStats{
		State:      b.State(),
		Trips:      b.trips.Load(),
		Resets:     b.resets.Load(),
		Rejections: b.rejections.Load(),
	}
}
