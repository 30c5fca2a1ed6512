package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vidrec/internal/dataset"
	"vidrec/internal/kvstore"
	"vidrec/internal/recommend"
)

// clickLine is one TSV action line: user clicks video at second i.
func clickLine(i int, user, video string) string {
	return fmt.Sprintf("%d\t%s\t%s\tclick\t0\t0\n", 1457308800000+int64(i)*1000, user, video)
}

// writeDataDir writes a recgen-shaped data directory: a three-video
// catalog, no profiles, and the given actions.tsv.
func writeDataDir(t *testing.T, actions string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range map[string]string{
		"catalog.tsv":  "a\tmovie\t1800000\nb\tmovie\t1800000\nc\tmovie\t1800000\n",
		"profiles.tsv": "",
		"actions.tsv":  actions,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestReplayStreamsBeforeLogEnds: the startup replay trains on the log as
// it is read. The first k actions go down a pipe that stays open; the k-th
// user's click must reach the history before the writer closes the pipe.
func TestReplayStreamsBeforeLogEnds(t *testing.T) {
	sys, _ := testSystem(t, recommend.DefaultOptions())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := replayActions(context.Background(), sys, dataset.NewActionReader(pr))
		done <- err
	}()

	const k = 20
	for i := 1; i <= k; i++ {
		if _, err := io.WriteString(pw, clickLine(i, fmt.Sprintf("p%02d", i), "c")); err != nil {
			t.Fatal(err)
		}
	}
	last := fmt.Sprintf("p%02d", k)
	deadline := time.Now().Add(10 * time.Second)
	for {
		recent, err := sys.History.RecentVideos(context.Background(), last, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recent) == 1 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("replay ended before the log did: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's click not trained after 10s with the log still open", last)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStartupStopsAtMalformedLine: a malformed line in the middle of
// actions.tsv fails the startup in the words dataset.ReadActions uses for
// the same file. The lines before it have trained; the lines after it were
// never read.
func TestStartupStopsAtMalformedLine(t *testing.T) {
	actions := "# replay log\n" + clickLine(1, "q1", "a") + clickLine(2, "q2", "b") +
		"1457308803000\tq3\tc\tclick\n" + clickLine(4, "q4", "c")
	dir := writeDataDir(t, actions)
	_, want := dataset.ReadActions(strings.NewReader(actions))
	if want == nil || want.Error() != "dataset: line 4: 4 fields, want 6" {
		t.Fatalf("ReadActions on the log = %v, want the line 4 field-count error", want)
	}

	sys, _ := testSystem(t, recommend.DefaultOptions())
	metrics, err := startup(context.Background(), sys, dir, true)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("startup error = %v, want %q", err, want)
	}
	if metrics != nil {
		t.Errorf("failed startup returned replay metrics %v", metrics)
	}
	for user, n := range map[string]int{"q1": 1, "q2": 1, "q3": 0, "q4": 0} {
		recent, err := sys.History.RecentVideos(context.Background(), user, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(recent) != n {
			t.Errorf("%s history = %v, want %d entries", user, recent, n)
		}
	}
}

// TestStartWithoutReplaySkipsActionLog: a start that does not replay —
// -replay=false, or a loaded -snapshot — never reads actions.tsv, so a
// malformed log does not stop it from serving.
func TestStartWithoutReplaySkipsActionLog(t *testing.T) {
	dir := writeDataDir(t, "garbage\n")
	_, kv := testSystem(t, recommend.DefaultOptions())
	snap := filepath.Join(t.TempDir(), "state.snap")
	if err := kv.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		replay   bool
		snapshot string
	}{
		{"replay=false", false, ""},
		{"snapshot", true, snap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				done <- run(ctx, addr, dir, tc.replay, "", "", tc.snapshot,
					kvstore.DefaultResilienceConfig(), recommend.DefaultOptions())
			}()
			waitHealthy(t, addr, done)
			resp, err := http.Get("http://" + addr + "/recommend?user=u1&n=2")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/recommend status = %d, want 200", resp.StatusCode)
			}
			cancel()
			if err := <-done; err != nil {
				t.Errorf("run = %v after shutdown", err)
			}
		})
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// waitHealthy polls /healthz until it answers 200, failing the test if run
// returns first or 10s pass.
func waitHealthy(t *testing.T, addr string, done <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server not healthy after 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
