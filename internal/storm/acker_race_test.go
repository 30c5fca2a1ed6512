package storm

import (
	"math/rand"
	"sync"
	"testing"
)

// TestAckerConcurrentTrees hammers the acker with many tuple trees resolving
// at once: inits, acks, and failures all race on the ack channel, with init
// frequently arriving after acks for its tree (legal — XOR is
// order-independent). Exactly one completion notice must come out per root,
// with the right failed bit, and stragglers arriving after a failure
// fast-path must be dropped rather than resurrecting the entry. Run with
// -race this doubles as the concurrency check for the acker/notifier pair.
func TestAckerConcurrentTrees(t *testing.T) {
	const (
		roots = 128
		edges = 8
	)
	a := newAcker()
	a.start()
	origin := &task{notices: newNotifier()}

	rng := rand.New(rand.NewSource(1))
	type tree struct {
		root    int64
		edges   []uint64
		initXor uint64
		fail    bool
	}
	trees := make([]tree, roots)
	for i := range trees {
		tr := tree{root: a.newRoot(), fail: i%4 == 3}
		for j := 0; j < edges; j++ {
			// Edge ids are never zero (a zero edge would XOR as a no-op and
			// could complete a tree prematurely), matching the runtime.
			e := rng.Uint64() | 1
			tr.edges = append(tr.edges, e)
			tr.initXor ^= e
		}
		trees[i] = tr
	}

	var wg sync.WaitGroup
	for _, tr := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.initWithOrigin(tr.root, tr.initXor, origin)
		}()
		for j, e := range tr.edges {
			if tr.fail && j == 0 {
				// Withhold one ack so a failing tree can never XOR to zero:
				// its only possible resolution is the explicit fail below,
				// which makes the expected failed bit deterministic.
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.ack(tr.root, e)
			}()
		}
		if tr.fail {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.fail(tr.root)
			}()
		}
	}
	wg.Wait()
	a.stop() // processes everything queued before returning

	got := make(map[int64]bool) // root -> failed bit of its single notice
	for {
		n, ok := origin.notices.get(false)
		if !ok {
			break
		}
		if _, dup := got[n.root]; dup {
			t.Fatalf("root %d notified twice", n.root)
		}
		got[n.root] = n.failed
	}
	if len(got) != roots {
		t.Fatalf("got %d completion notices, want %d", len(got), roots)
	}
	for _, tr := range trees {
		failed, ok := got[tr.root]
		switch {
		case !ok:
			t.Errorf("root %d never resolved", tr.root)
		case failed != tr.fail:
			t.Errorf("root %d resolved with failed=%v, want %v", tr.root, failed, tr.fail)
		}
	}
}

// TestNotifierBlockingGet checks the blocking receive path the spout loop
// uses: get(true) must wait for a put from another goroutine, and get(false)
// on an empty queue must return at once.
func TestNotifierBlockingGet(t *testing.T) {
	n := newNotifier()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.put(ackNotice{root: 7})
	}()
	v, ok := n.get(true)
	if !ok || v.root != 7 {
		t.Fatalf("get(true) = %+v, %v; want root 7", v, ok)
	}
	wg.Wait()
	if _, ok := n.get(false); ok {
		t.Fatal("get(false) returned a notice from an empty queue")
	}
}
