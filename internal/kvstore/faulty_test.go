package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFaultyPassthroughWhenHealthy(t *testing.T) {
	f := NewFaulty(NewLocal(4), 1)
	if err := f.Set(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := f.Get(context.Background(), "k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if n, _ := f.Len(context.Background()); n != 1 {
		t.Errorf("Len = %d", n)
	}
	if ok, _ := f.Delete(context.Background(), "k"); !ok {
		t.Error("Delete = false")
	}
	if f.Injected() != 0 {
		t.Errorf("injected %d faults at rate 0", f.Injected())
	}
}

func TestFaultyInjectsAtRate(t *testing.T) {
	f := NewFaulty(NewLocal(4), 42)
	f.SetFailRate(0.5)
	failures := 0
	const tries = 400
	for i := 0; i < tries; i++ {
		if err := f.Set(context.Background(), "k", nil); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		}
	}
	if failures < tries/4 || failures > tries*3/4 {
		t.Errorf("failures = %d/%d, want roughly half", failures, tries)
	}
	if f.Injected() != uint64(failures) {
		t.Errorf("Injected = %d, want %d", f.Injected(), failures)
	}
}

func TestFaultyAlwaysFails(t *testing.T) {
	f := NewFaulty(NewLocal(1), 7)
	f.SetFailRate(1)
	if _, _, err := f.Get(context.Background(), "k"); !errors.Is(err, ErrInjected) {
		t.Error("Get did not fail at rate 1")
	}
	if _, err := f.MGet(context.Background(), []string{"k"}); !errors.Is(err, ErrInjected) {
		t.Error("MGet did not fail at rate 1")
	}
	if err := f.Update(context.Background(), "k", func([]byte, bool) ([]byte, bool) { return nil, true }); !errors.Is(err, ErrInjected) {
		t.Error("Update did not fail at rate 1")
	}
	if _, err := f.Len(context.Background()); !errors.Is(err, ErrInjected) {
		t.Error("Len did not fail at rate 1")
	}
	if _, err := f.Delete(context.Background(), "k"); !errors.Is(err, ErrInjected) {
		t.Error("Delete did not fail at rate 1")
	}
}

func TestFaultyRateClamps(t *testing.T) {
	f := NewFaulty(NewLocal(1), 7)
	f.SetFailRate(-0.5)
	if err := f.Set(context.Background(), "k", nil); err != nil {
		t.Error("negative rate did not clamp to 0")
	}
	f.SetFailRate(2)
	if err := f.Set(context.Background(), "k", nil); err == nil {
		t.Error("rate above 1 did not clamp to 1")
	}
}

func TestFaultyLatency(t *testing.T) {
	f := NewFaulty(NewLocal(1), 7)
	f.SetLatency(20 * time.Millisecond)
	start := time.Now()
	f.Get(context.Background(), "k")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("latency injection too fast: %v", elapsed)
	}
}

func TestFaultyDeterministic(t *testing.T) {
	run := func() []bool {
		f := NewFaulty(NewLocal(1), 99)
		f.SetFailRate(0.3)
		var outcomes []bool
		for i := 0; i < 50; i++ {
			outcomes = append(outcomes, f.Set(context.Background(), "k", nil) != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fault sequence not reproducible across runs with one seed")
		}
	}
}

// TestFaultyConcurrentReconfigure serves Get and Set from several goroutines
// while another retunes the injector through SetFailRate, SetLatency and
// SetSchedule. Under -race it holds the flat knobs to their atomic methods
// and the schedule state to mu.
func TestFaultyConcurrentReconfigure(t *testing.T) {
	f := NewFaulty(NewLocal(4), 3)
	f.SetFailRate(0.5)
	ctx := context.Background()
	stop := make(chan struct{})
	var tuner sync.WaitGroup
	tuner.Add(1)
	go func() {
		defer tuner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.SetFailRate(float64(i%3) / 2)
			f.SetLatency(time.Duration(i%2) * time.Microsecond)
			switch i % 4 {
			case 0:
				f.SetSchedule([]FaultPhase{{Ops: 8, FailRate: 1}})
			case 2:
				f.SetSchedule(nil)
			}
		}
	}()
	const workers, ops = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%8)
				if err := f.Set(ctx, key, []byte(key)); err != nil && !errors.Is(err, ErrInjected) {
					t.Error(err)
					return
				}
				if _, _, err := f.Get(ctx, key); err != nil && !errors.Is(err, ErrInjected) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	tuner.Wait()
	if f.Injected() == 0 {
		t.Error("no fault injected: the run never took the failure path")
	}
}
