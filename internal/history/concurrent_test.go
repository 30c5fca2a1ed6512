package history

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"vidrec/internal/kvstore"
)

// TestConcurrentAppendOverClient appends 8 goroutines × 25 distinct videos
// to one user's history through the network client and requires the same
// video set as the sequential run over Local: an Append is one op the server
// applies atomically, so concurrent writers lose nothing. The history has
// room for every video, so only the order may differ.
func TestConcurrentAppendOverClient(t *testing.T) {
	ctx := context.Background()
	const writers, appends = 8, 25
	ts := time.Unix(1_457_308_800, 0)
	video := func(w, i int) string { return fmt.Sprintf("w%d-v%02d", w, i) }
	videos := func(s *Store) []string {
		t.Helper()
		got, err := s.RecentVideos(ctx, "u1", -1)
		if err != nil {
			t.Fatal(err)
		}
		got = slices.Clone(got)
		slices.Sort(got)
		return got
	}

	seq, err := New("t", kvstore.NewLocal(4), writers*appends)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < appends; i++ {
			if err := seq.Append(ctx, "u1", video(w, i), ts.Add(time.Duration(i)*time.Second)); err != nil {
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
	conc, err := New("t", cli, writers*appends)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if err := conc.Append(ctx, "u1", video(w, i), ts.Add(time.Duration(i)*time.Second)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	want, got := videos(seq), videos(conc)
	if !slices.Equal(got, want) {
		t.Fatalf("concurrent Appends kept %d videos, the sequential run %d", len(got), len(want))
	}
}
