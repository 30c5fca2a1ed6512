package demographic

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"vidrec/internal/kvstore"
)

// TestConcurrentRecordOverClient heats one hot list from 8 goroutines × 200
// Records through the network client and requires the same total heat as
// the sequential run over Local: a Record is one op the server applies
// atomically, so concurrent writers lose nothing. Every Record carries one
// timestamp and the list has room for every video, so the total does not
// depend on the order the writes land in.
func TestConcurrentRecordOverClient(t *testing.T) {
	ctx := context.Background()
	const writers, records, videos = 8, 200, 20
	ts := time.Unix(1_457_308_800, 0)
	video := func(w, i int) string { return fmt.Sprintf("v%02d", (w*records+i)%videos) }
	weight := func(w, i int) float64 { return 1 + float64((w+i)%3)/4 }
	total := func(h *HotTracker) float64 {
		t.Helper()
		hot, err := h.Hot(ctx, GlobalGroup, 2*videos, ts)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, e := range hot {
			sum += e.Score
		}
		return sum
	}

	seq, err := NewHotTracker("t", kvstore.NewLocal(4), time.Hour, 2*videos)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < records; i++ {
			if err := seq.Record(ctx, GlobalGroup, video(w, i), weight(w, i), ts); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv, err := kvstore.NewServer(ctx, kvstore.NewLocal(4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := kvstore.DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conc, err := NewHotTracker("t", cli, time.Hour, 2*videos)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				if err := conc.Record(ctx, GlobalGroup, video(w, i), weight(w, i), ts); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	want, got := total(seq), total(conc)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("concurrent Records left total heat %v, the sequential run %v", got, want)
	}
}
