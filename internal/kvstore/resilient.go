package kvstore

import (
	"context"
	"time"

	"vidrec/internal/metrics"
)

// Resilient decorates a single backend Store with the client-side discipline
// a remote storage tier demands: a per-attempt deadline (a stalled shard
// fails the attempt instead of wedging the caller), bounded retries with
// seeded-jitter exponential backoff (a blip costs milliseconds, not a failed
// request), and a circuit breaker (a dead shard fails fast instead of costing
// every request its full retry budget). Compose one Resilient per backend and
// feed them to NewReplicated for the full replicated serving stack.
//
// Determinism contract (the simulation harness relies on this): the backoff
// jitter comes from a seeded RNG, the breaker's cooldown timing from an
// injected clock, and the actual waiting from an injectable sleep — no wall
// time anywhere, so a scenario replays its retry pattern exactly.
//
// Update callers note: the read-modify-write callback may run once per
// attempt when the inner Update fails after invoking it, so it must stay a
// pure function of the current value — the same requirement the Client
// already imposes.
//
// A batch (ApplyOps) is retried by what its failure says was applied. A
// store-reported error names the ops applied before it, so the retry resends
// only the rest. A transport error says nothing — the frame may have been
// applied in full before its reply was lost — so the retry resends every op
// not yet known applied, and a rewrite such as a mean fold can then apply
// twice. That is the same hazard a retried get-modify-set Update carries;
// exactly-once delivery would need a client id and sequence number on every
// frame, which the network protocol does not have.
type Resilient struct {
	inner   Store
	cfg     ResilienceConfig
	backoff *Backoff
	breaker *Breaker
	sleep   func(context.Context, time.Duration) error

	retries   metrics.Counter // attempts beyond the first, per operation
	exhausted metrics.Counter // operations that failed after the full budget
}

// ResilienceConfig configures a Resilient decorator.
type ResilienceConfig struct {
	// OpTimeout is the per-attempt deadline layered onto the caller's
	// context. 0 disables the layer (the caller's own deadline still
	// applies).
	OpTimeout time.Duration
	// MaxRetries is how many retries follow a failed first attempt.
	MaxRetries int
	// Backoff shapes the inter-retry delays.
	Backoff BackoffConfig
	// Breaker configures the per-backend circuit breaker; a zero Threshold
	// disables it.
	Breaker BreakerConfig
}

// DefaultResilienceConfig returns production-shaped settings: a generous
// per-attempt deadline, two retries inside a ~10ms budget, and a breaker that
// trips after five consecutive failures.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		OpTimeout:  2 * time.Second,
		MaxRetries: 2,
		Backoff:    BackoffConfig{Base: DefaultBackoffBase, Max: DefaultBackoffMax},
		Breaker:    BreakerConfig{Threshold: 5, Cooldown: DefaultBreakerCooldown},
	}
}

// NewResilient wraps inner. seed drives the backoff jitter; the clock and
// sleep default to real time (SetClock/SetSleep inject virtual ones).
func NewResilient(inner Store, cfg ResilienceConfig, seed uint64) *Resilient {
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	return &Resilient{
		inner:   inner,
		cfg:     cfg,
		backoff: NewBackoff(cfg.Backoff, seed),
		breaker: NewBreaker(cfg.Breaker, nil),
		sleep:   sleepContext,
	}
}

// SetClock injects the time source for breaker cooldown timing. A nil fn
// restores the wall clock.
func (r *Resilient) SetClock(fn func() time.Time) { r.breaker.SetClock(fn) }

// SetSleep injects the waiting primitive used between retries; the simulation
// harness substitutes a no-op so replay never blocks on real timers. A nil fn
// restores the default context-aware sleep.
func (r *Resilient) SetSleep(fn func(context.Context, time.Duration) error) {
	if fn == nil {
		fn = sleepContext
	}
	r.sleep = fn
}

// Breaker exposes the decorator's circuit breaker for telemetry and tests.
func (r *Resilient) Breaker() *Breaker { return r.breaker }

// ResilienceStats is a point-in-time snapshot of the decorator's counters.
type ResilienceStats struct {
	Retries   uint64 // attempts beyond the first
	Exhausted uint64 // operations failed after the full retry budget
	Breaker   BreakerStats
}

// Stats returns the decorator's counters.
func (r *Resilient) Stats() ResilienceStats {
	return ResilienceStats{
		Retries:   r.retries.Load(),
		Exhausted: r.exhausted.Load(),
		Breaker:   r.breaker.Stats(),
	}
}

// sleepContext waits for d or until ctx is done, whichever is first.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs op under the breaker/retry/deadline discipline. The error returned
// is the last attempt's error — wrapped nowhere, so errors.Is sees the root
// cause (ErrInjected, net errors, ...) through the whole decorator stack.
func (r *Resilient) do(ctx context.Context, op func(context.Context) error) error {
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !r.breaker.Allow() {
			// Fail fast; retrying against an open breaker would just spin
			// on rejections until the cooldown elapses.
			return ErrBreakerOpen
		}
		err := r.attempt(ctx, op)
		if err == nil {
			r.breaker.Success()
			return nil
		}
		r.breaker.Failure()
		last = err
		// The caller's own context expiring is not retryable: the budget
		// belongs to the request, not to this decorator.
		if attempt >= r.cfg.MaxRetries || ctx.Err() != nil {
			r.exhausted.Inc()
			return last
		}
		r.retries.Inc()
		if serr := r.sleep(ctx, r.backoff.Delay(attempt)); serr != nil {
			return serr
		}
	}
}

// attempt runs op once under the per-attempt deadline.
func (r *Resilient) attempt(ctx context.Context, op func(context.Context) error) error {
	if r.cfg.OpTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.OpTimeout)
		defer cancel()
	}
	return op(ctx)
}

// Get implements Store.
func (r *Resilient) Get(ctx context.Context, key string) ([]byte, bool, error) {
	var v []byte
	var ok bool
	err := r.do(ctx, func(ctx context.Context) error {
		var err error
		v, ok, err = r.inner.Get(ctx, key)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return v, ok, nil
}

// Set implements Store.
func (r *Resilient) Set(ctx context.Context, key string, val []byte) error {
	return r.do(ctx, func(ctx context.Context) error {
		return r.inner.Set(ctx, key, val)
	})
}

// Delete implements Store.
func (r *Resilient) Delete(ctx context.Context, key string) (bool, error) {
	var ok bool
	err := r.do(ctx, func(ctx context.Context) error {
		var err error
		ok, err = r.inner.Delete(ctx, key)
		return err
	})
	if err != nil {
		return false, err
	}
	return ok, nil
}

// MGet implements Store.
func (r *Resilient) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	var vals [][]byte
	err := r.do(ctx, func(ctx context.Context) error {
		var err error
		vals, err = r.inner.MGet(ctx, keys)
		return err
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// Update implements Store. fn may run once per attempt; see the type comment.
func (r *Resilient) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	return r.do(ctx, func(ctx context.Context) error {
		return r.inner.Update(ctx, key, fn)
	})
}

// ApplyOps implements Applier, retrying the ops not yet applied; see the
// type comment for what a lost reply means.
func (r *Resilient) ApplyOps(ctx context.Context, ops []Op) (int, error) {
	done := 0
	err := r.do(ctx, func(ctx context.Context) error {
		n, err := Apply(ctx, r.inner, ops[done:]...)
		done += n
		return err
	})
	return done, err
}

// Len implements Store.
func (r *Resilient) Len(ctx context.Context) (int, error) {
	var n int
	err := r.do(ctx, func(ctx context.Context) error {
		var err error
		n, err = r.inner.Len(ctx)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}
