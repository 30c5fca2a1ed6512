package kvstore

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Networked deployment of the store. The paper's production system keeps all
// model state in a distributed memory-based key-value service that the Storm
// workers talk to over the network; Server/Client reproduce that deployment
// shape with a small gob-encoded request/response protocol over TCP. Each
// client connection is a session with its own encoder/decoder pair; requests
// on one connection are processed in order.
//
// Context discipline: every client operation takes a context whose deadline
// is pushed down onto the TCP connection, so a stalled server surfaces as a
// timeout on the serving path instead of a wedged goroutine. The server
// threads a base context (supplied at construction, normally the process
// lifetime context) into every backing-store call.

type opCode uint8

const (
	opGet opCode = iota + 1
	opSet
	opDelete
	opMGet
	opLen
	opApply
)

type request struct {
	Op   opCode
	Key  string
	Keys []string
	Val  []byte
	Ops  []Op // opApply
}

type response struct {
	OK     bool
	Val    []byte
	Vals   [][]byte // opMGet: the values; opApply: each applied Want op's Result
	N      int      // opLen: the key count; opApply: the ops applied
	ErrMsg string
}

// Server exposes a backing Store over TCP.
type Server struct {
	backing  Store
	listener net.Listener
	baseCtx  context.Context

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
	wg     sync.WaitGroup

	requests atomic.Uint64 // frames decoded, one per client round trip
}

// NewServer starts serving the backing store on addr (e.g. "127.0.0.1:0").
// It returns once the listener is bound; connection handling proceeds in the
// background until Close. ctx is the base context threaded into every
// backing-store call; cancelling it fails in-flight requests but does not
// stop the listener — use Close for shutdown.
func NewServer(ctx context.Context, backing Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: listen %s: %w", addr, err)
	}
	s := &Server{backing: backing, listener: ln, baseCtx: ctx, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Requests reports how many request frames the server has decoded — the
// number of client round trips it has served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Close stops the listener and closes every open connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		_ = c.Close() // teardown: per-conn close errors don't outrank the listener's
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// acceptLoop's lifetime is bounded by the listener: Close unblocks Accept.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		// ctxcheck: lifecycle goroutine; shutdown is listener Close, not cancellation
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // racing shutdown: the session never started
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(s.baseCtx, conn)
	}
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close() // session over; the peer sees EOF either way
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return // connection closed or corrupt stream
		}
		s.requests.Add(1)
		resp := s.handle(ctx, &req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (s *Server) handle(ctx context.Context, req *request) *response {
	var resp response
	switch req.Op {
	case opGet:
		v, ok, err := s.backing.Get(ctx, req.Key)
		resp.Val, resp.OK = v, ok
		setErr(&resp, err)
	case opSet:
		setErr(&resp, s.backing.Set(ctx, req.Key, req.Val))
		resp.OK = true
	case opDelete:
		ok, err := s.backing.Delete(ctx, req.Key)
		resp.OK = ok
		setErr(&resp, err)
	case opMGet:
		vals, err := s.backing.MGet(ctx, req.Keys)
		resp.Vals = vals
		resp.OK = true
		setErr(&resp, err)
	case opLen:
		n, err := s.backing.Len(ctx)
		resp.N = n
		resp.OK = true
		setErr(&resp, err)
	case opApply:
		// The whole frame is checked before any op runs, so a malformed
		// frame applies nothing.
		for i := range req.Ops {
			if err := req.Ops[i].validate(); err != nil {
				setErr(&resp, err)
				return &resp
			}
		}
		n, err := Apply(ctx, s.backing, req.Ops...)
		resp.N = n
		resp.OK = err == nil
		setErr(&resp, err)
		for i := range req.Ops[:n] {
			if r := req.Ops[i].result; r != nil {
				if resp.Vals == nil {
					resp.Vals = make([][]byte, n)
				}
				resp.Vals[i] = r
			}
		}
	default:
		resp.ErrMsg = fmt.Sprintf("kvstore: unknown op %d", req.Op)
	}
	return &resp
}

func setErr(resp *response, err error) {
	if err != nil {
		resp.ErrMsg = err.Error()
	}
}

// Client is a Store backed by a remote Server. It maintains a small pool of
// connections; each request checks one out for its round trip, so the client
// is safe for concurrent use by many topology workers.
type Client struct {
	addr string

	mu     sync.Mutex
	idle   []*clientConn // guarded by mu
	closed bool          // guarded by mu
}

type clientConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialContext connects to a Server at addr under ctx's deadline. The initial
// connection is established eagerly so that configuration errors surface
// immediately.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	c := &Client{addr: addr}
	cc, err := c.newConn(ctx)
	if err != nil {
		return nil, err
	}
	c.put(cc)
	return c, nil
}

func (c *Client) newConn(ctx context.Context) (*clientConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", c.addr, err)
	}
	return &clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// get checks a connection out of the pool, dialing a fresh one when the pool
// is empty. pooled reports which case happened: a pooled connection may have
// been poisoned while idle (server restart, idle timeout at the peer), so
// its first error is grounds for a retry on a fresh dial, whereas a fresh
// connection's error is the network's real answer.
func (c *Client) get(ctx context.Context) (cc *clientConn, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, errors.New("kvstore: client closed")
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, true, nil
	}
	c.mu.Unlock()
	cc, err = c.newConn(ctx)
	return cc, false, err
}

func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= 16 {
		c.mu.Unlock()
		_ = cc.conn.Close() // surplus conn: nothing in flight to lose
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// Close closes all pooled connections; in-flight requests may fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.idle {
		_ = cc.conn.Close() // pool teardown: idle conns carry no in-flight requests
	}
	c.idle = nil
	return nil
}

// roundTrip performs one request/response exchange. Transport failures on a
// *pooled* connection are not the network's final answer — the conn may have
// been poisoned while idle (the server restarted, a middlebox dropped the
// flow) — so the poisoned conn is discarded and the exchange retried on the
// next connection; once the pool is drained a fresh dial's verdict is final.
// Server-reported errors (resp.ErrMsg) are never retried: the request was
// delivered and answered, and the response comes back beside the error.
func (c *Client) roundTrip(ctx context.Context, req *request) (*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for {
		cc, pooled, err := c.get(ctx)
		if err != nil {
			return nil, err
		}
		resp, err := c.exchange(ctx, cc, req)
		if err != nil {
			if pooled && ctx.Err() == nil {
				continue // stale pooled conn; redial rather than fail the op
			}
			return nil, err
		}
		if resp.ErrMsg != "" {
			return resp, errors.New(resp.ErrMsg)
		}
		return resp, nil
	}
}

// exchange runs one request/response over a specific connection. A context
// deadline is pushed onto the connection for the exchange (and cleared before
// the conn returns to the pool), so a stalled server fails the call instead
// of blocking a worker forever. A deadline/cancellation failure poisons the
// conn — the stream may hold a half-read response — so it is dropped. The
// returned error is always transport-level; server-side errors travel inside
// the response.
func (c *Client) exchange(ctx context.Context, cc *clientConn, req *request) (*response, error) {
	if deadline, ok := ctx.Deadline(); ok {
		if err := cc.conn.SetDeadline(deadline); err != nil {
			_ = cc.conn.Close() // conn is unusable if deadlines can't be set
			return nil, fmt.Errorf("kvstore: set deadline: %w", err)
		}
	}
	var resp response
	if err := cc.enc.Encode(req); err != nil {
		_ = cc.conn.Close() // conn is poisoned; the encode error is what matters
		return nil, fmt.Errorf("kvstore: send: %w", err)
	}
	if err := cc.dec.Decode(&resp); err != nil {
		_ = cc.conn.Close() // conn is poisoned; the decode error is what matters
		return nil, fmt.Errorf("kvstore: recv: %w", err)
	}
	if _, ok := ctx.Deadline(); ok {
		if err := cc.conn.SetDeadline(time.Time{}); err != nil {
			_ = cc.conn.Close() // cannot clear the deadline; don't pool it
			return &resp, nil
		}
	}
	c.put(cc)
	return &resp, nil
}

// Get implements Store.
func (c *Client) Get(ctx context.Context, key string) ([]byte, bool, error) {
	resp, err := c.roundTrip(ctx, &request{Op: opGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Val, resp.OK, nil
}

// Set implements Store.
func (c *Client) Set(ctx context.Context, key string, val []byte) error {
	_, err := c.roundTrip(ctx, &request{Op: opSet, Key: key, Val: val})
	return err
}

// Delete implements Store.
func (c *Client) Delete(ctx context.Context, key string) (bool, error) {
	resp, err := c.roundTrip(ctx, &request{Op: opDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// MGet implements Store.
func (c *Client) MGet(ctx context.Context, keys []string) ([][]byte, error) {
	resp, err := c.roundTrip(ctx, &request{Op: opMGet, Keys: keys})
	if err != nil {
		return nil, err
	}
	return resp.Vals, nil
}

// ApplyOps implements Applier: the whole batch travels in one frame and the
// server applies it to its backing store, each rewrite atomically there; the
// reply carries the Result of every applied Want op. A server-reported error
// carries how many ops were applied before it; a transport error reports
// none, though the server may have applied them all before the reply was
// lost.
func (c *Client) ApplyOps(ctx context.Context, ops []Op) (int, error) {
	resp, err := c.roundTrip(ctx, &request{Op: opApply, Ops: ops})
	if resp == nil {
		return 0, err
	}
	n := min(resp.N, len(ops))
	for i := range resp.Vals[:min(n, len(resp.Vals))] {
		if ops[i].Want {
			ops[i].result = resp.Vals[i]
		}
	}
	return n, err
}

// Update implements Store as a get-modify-set sequence: a closure cannot
// travel, so it runs here between two round trips. This is linearizable only
// under the topology's single-writer-per-key discipline (fields grouping
// guarantees exactly one worker updates a given key), matching the paper's
// correctness argument in §5.1. The write path's list and mean rewrites do
// not come through here: they are Ops (Apply), executed by the server; what
// remains is the bandit state, whose writers fields grouping serializes.
func (c *Client) Update(ctx context.Context, key string, fn func(cur []byte, exists bool) ([]byte, bool)) error {
	cur, ok, err := c.Get(ctx, key)
	if err != nil {
		return err
	}
	next, keep := fn(cur, ok)
	if !keep {
		_, err := c.Delete(ctx, key)
		return err
	}
	return c.Set(ctx, key, next)
}

// Len implements Store.
func (c *Client) Len(ctx context.Context) (int, error) {
	resp, err := c.roundTrip(ctx, &request{Op: opLen})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}
