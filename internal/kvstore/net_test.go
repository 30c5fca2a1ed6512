package kvstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(context.Background(), NewLocal(8), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestClientServerBasicOps(t *testing.T) {
	_, cli := newTestServer(t)

	if err := cli.Set(context.Background(), "k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cli.Get(context.Background(), "k")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := cli.Get(context.Background(), "missing"); ok {
		t.Error("Get(missing) reported a hit")
	}
	if n, _ := cli.Len(context.Background()); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	if ok, _ := cli.Delete(context.Background(), "k"); !ok {
		t.Error("Delete = false, want true")
	}
	if n, _ := cli.Len(context.Background()); n != 0 {
		t.Errorf("Len after delete = %d, want 0", n)
	}
}

func TestClientServerMGet(t *testing.T) {
	_, cli := newTestServer(t)
	cli.Set(context.Background(), "a", []byte("1"))
	cli.Set(context.Background(), "b", []byte("2"))
	vals, err := cli.MGet(context.Background(), []string{"b", "x", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "2" || vals[1] != nil || string(vals[2]) != "1" {
		t.Errorf("MGet = %q", vals)
	}
}

func TestClientServerUpdate(t *testing.T) {
	_, cli := newTestServer(t)
	cli.Set(context.Background(), "n", EncodeInt64(41))
	err := cli.Update(context.Background(), "n", func(cur []byte, exists bool) ([]byte, bool) {
		n, _ := DecodeInt64(cur)
		return EncodeInt64(n + 1), true
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := cli.Get(context.Background(), "n")
	if n, _ := DecodeInt64(v); n != 42 {
		t.Errorf("value after Update = %d, want 42", n)
	}
	// Update with ok=false deletes.
	cli.Update(context.Background(), "n", func([]byte, bool) ([]byte, bool) { return nil, false })
	if _, ok, _ := cli.Get(context.Background(), "n"); ok {
		t.Error("Update delete left key present")
	}
}

func TestClientConcurrentAccess(t *testing.T) {
	_, cli := newTestServer(t)
	const workers, keys = 8, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := cli.Set(context.Background(), key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := cli.Get(context.Background(), key)
				if err != nil || !ok || string(v) != key {
					t.Errorf("Get(%s) = %q,%v,%v", key, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := cli.Len(context.Background()); n != workers*keys {
		t.Errorf("Len = %d, want %d", n, workers*keys)
	}
}

func TestClientAfterServerClose(t *testing.T) {
	srv, err := NewServer(context.Background(), NewLocal(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	if err := cli.Set(context.Background(), "k", nil); err == nil {
		t.Error("Set after server close succeeded, want error")
	}
}

// blockingStore parks every Get until release is closed, after telling
// entered that a request reached the backing store.
type blockingStore struct {
	Store
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (s *blockingStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.Store.Get(ctx, key)
}

// TestServerCloseWaitsForSession: Close must not return while a session is
// mid-request, because that session still holds the backing store.
func TestServerCloseWaitsForSession(t *testing.T) {
	backing := &blockingStore{Store: NewLocal(1), entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := NewServer(context.Background(), backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got := make(chan struct{})
	go func() {
		defer close(got)
		_, _, _ = cli.Get(context.Background(), "k") // Close cuts the session; any result will do
	}()
	<-backing.entered
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a session was mid-request")
	case <-time.After(100 * time.Millisecond):
	}
	close(backing.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the request finished")
	}
	<-got
}

func TestDialRefused(t *testing.T) {
	if _, err := DialContext(context.Background(), "127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port succeeded, want error")
	}
}

func TestClientClosedRejectsOps(t *testing.T) {
	_, cli := newTestServer(t)
	cli.Close()
	if _, _, err := cli.Get(context.Background(), "k"); err == nil {
		t.Error("Get on closed client succeeded, want error")
	}
}
