package kvstore

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Faulty wraps a Store with deterministic fault and latency injection, for
// testing how the pipeline behaves when the storage tier degrades — the
// production failure mode a 100-node deployment sees daily. Faults are
// driven by a seeded PRNG so failing runs reproduce exactly.
type Faulty struct {
	inner Store

	mu       sync.Mutex
	rng      *rand.Rand   // guarded by mu
	schedule []FaultPhase // guarded by mu
	phase    int          // guarded by mu; index of the schedule's current phase
	phaseOps uint64       // guarded by mu; operations the current phase has counted
	opCount  uint64       // guarded by mu; operations seen since SetSchedule

	// FailRate is the probability in [0,1] that an operation returns
	// ErrInjected instead of executing.
	failRate atomic.Uint64 // float64 bits
	// latency is added to every operation.
	latency atomic.Int64 // nanoseconds

	injected atomic.Uint64
}

// FaultPhase describes the injector's behaviour for a window of operations.
// A schedule is a sequence of phases consumed by operation count, which makes
// fault timing a deterministic function of the workload instead of wall time:
// the same scenario replays the same faults on every run.
type FaultPhase struct {
	// Ops is how many operations the phase covers: every operation, or with
	// a KeyPrefix only the operations touching it — so a window over one
	// namespace is placed by that namespace's own traffic, whatever the
	// caches in front of the store absorb elsewhere. 0 means "until the end
	// of the run" (only sensible for the last phase).
	Ops uint64
	// FailRate is the probability in [0,1] that an operation in this phase
	// returns ErrInjected.
	FailRate float64
	// Latency is added to every operation in this phase.
	Latency time.Duration
	// KeyPrefix, when non-empty, restricts the phase's effects to
	// operations touching at least one key with this prefix — a partial
	// outage (e.g. one namespace's shard) rather than a store-wide one.
	KeyPrefix string
}

// ErrInjected is returned by operations the injector chose to fail.
var ErrInjected = fmt.Errorf("kvstore: injected fault")

// NewFaulty wraps inner with fault injection driven by seed.
func NewFaulty(inner Store, seed uint64) *Faulty {
	return &Faulty{inner: inner, rng: rand.New(rand.NewPCG(seed, seed^0xF00D))}
}

// SetFailRate sets the per-operation failure probability.
func (f *Faulty) SetFailRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	f.failRate.Store(floatBits(p))
}

// SetLatency sets the artificial per-operation latency.
func (f *Faulty) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// SetSchedule installs an operation-counted fault schedule, replacing the
// flat SetFailRate/SetLatency knobs while non-empty. The operation counters
// restart at zero, so phases are relative to the installation point. A nil
// or empty schedule reverts to the flat knobs.
func (f *Faulty) SetSchedule(phases []FaultPhase) {
	f.mu.Lock()
	f.schedule = append([]FaultPhase(nil), phases...)
	f.phase, f.phaseOps, f.opCount = 0, 0, 0
	f.mu.Unlock()
}

// Injected reports how many operations were failed so far.
func (f *Faulty) Injected() uint64 { return f.injected.Load() }

// Ops reports how many operations the injector has seen since the schedule
// was installed (or since construction, when no schedule was ever set).
func (f *Faulty) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opCount
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func (f *Faulty) fault(ctx context.Context, keys ...string) error {
	latency, fail := f.decide(keys)
	if latency > 0 {
		// Injected latency honours cancellation: a caller with a deadline
		// sees the timeout it configured, not the injector's full delay.
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if fail {
		f.injected.Add(1)
		return ErrInjected
	}
	return nil
}

// decide resolves what happens to the current operation: added latency and
// whether it fails. One RNG roll is consumed per operation regardless of the
// outcome, so the fault pattern is a pure function of (seed, op sequence).
func (f *Faulty) decide(keys []string) (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opCount++
	roll := f.rng.Float64()
	if len(f.schedule) == 0 {
		d := time.Duration(f.latency.Load())
		p := math.Float64frombits(f.failRate.Load())
		return d, p > 0 && roll < p
	}
	for f.phase < len(f.schedule) && f.schedule[f.phase].Ops != 0 && f.phaseOps >= f.schedule[f.phase].Ops {
		f.phase, f.phaseOps = f.phase+1, 0
	}
	if f.phase == len(f.schedule) {
		return 0, false // the schedule has run out
	}
	ph := &f.schedule[f.phase]
	if !prefixMatches(ph.KeyPrefix, keys) {
		return 0, false
	}
	f.phaseOps++
	return ph.Latency, ph.FailRate > 0 && roll < ph.FailRate
}

// prefixMatches reports whether the phase applies: an empty prefix matches
// every operation (including key-less ones like Len), otherwise at least one
// touched key must carry the prefix.
func prefixMatches(prefix string, keys []string) bool {
	if prefix == "" {
		return true
	}
	for _, k := range keys {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// Get implements Store.
func (f *Faulty) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if err := f.fault(ctx, key); err != nil {
		return nil, false, err
	}
	return f.inner.Get(ctx, key)
}

// Set implements Store.
func (f *Faulty) Set(ctx context.Context, key string, val []byte) error {
	if err := f.fault(ctx, key); err != nil {
		return err
	}
	return f.inner.Set(ctx, key, val)
}

// Delete implements Store.
func (f *Faulty) Delete(ctx context.Context, key string) (bool, error) {
	if err := f.fault(ctx, key); err != nil {
		return false, err
	}
	return f.inner.Delete(ctx, key)
}

// MGet implements Store.
func (f *Faulty) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	if err := f.fault(ctx, keys...); err != nil {
		return nil, err
	}
	return f.inner.MGet(ctx, keys)
}

// Update implements Store.
func (f *Faulty) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	if err := f.fault(ctx, key); err != nil {
		return err
	}
	return f.inner.Update(ctx, key, fn)
}

// Len implements Store.
func (f *Faulty) Len(ctx context.Context) (int, error) {
	if err := f.fault(ctx); err != nil {
		return 0, err
	}
	return f.inner.Len(ctx)
}
