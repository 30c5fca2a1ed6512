package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"vidrec/internal/kvstore"
)

// opTimes are per-operation durations in nanoseconds, by operation kind, with
// the clock's own cost already taken out.
type opTimes struct{ get, set, mget []float64 }

// clockCost is the median cost of timing nothing: a Local.Get is ~100 ns, and
// two clock reads are a visible part of that.
func clockCost() float64 {
	v := make([]float64, 2001)
	for i := range v {
		t := time.Now()
		v[i] = float64(time.Since(t))
	}
	return median(v)
}

// replayKeyOps replays the recorded key trace against st, timing every
// operation. Updates rewrite the value recorded for their key.
func replayKeyOps(ctx context.Context, st kvstore.Store, ops []keyOp, vals map[string][]byte) (opTimes, error) {
	var out opTimes
	cost := clockCost()
	for _, op := range ops {
		var err error
		t := time.Now()
		switch op.op {
		case "get":
			_, _, err = st.Get(ctx, op.keys[0])
		case "mget":
			_, err = st.MGet(ctx, op.keys)
		case "set":
			err = st.Set(ctx, op.keys[0], vals[op.keys[0]])
		case "update":
			err = st.Update(ctx, op.keys[0], func([]byte, bool) ([]byte, bool) { return vals[op.keys[0]], true })
		default:
			continue
		}
		d := max(float64(time.Since(t))-cost, 0)
		if err != nil {
			return out, fmt.Errorf("decorator probe %s %v: %w", op.op, op.keys, err)
		}
		switch op.op {
		case "get":
			out.get = append(out.get, d)
		case "mget":
			out.mget = append(out.mget, d)
		default:
			out.set = append(out.set, d)
		}
	}
	return out, nil
}

// probeOps turns the recorded trace into what every decorator stack replays:
// at most probeKeyOps operations, the value each key holds, and — when the
// workload's own traffic produced none of a kind (a warm serve-warm request
// reads nothing from the store) — gets, writes and MGets synthesized over the
// trace's own keys, so every workload reports every decorator.
func probeOps(recorded []keyOp) ([]keyOp, map[string][]byte) {
	ops := recorded[:min(probeKeyOps, len(recorded))]
	vals := make(map[string][]byte)
	var keys []string
	have := make(map[string]bool)
	for _, op := range ops {
		have[op.op] = true
		for _, k := range op.keys {
			if _, ok := vals[k]; !ok {
				keys = append(keys, k)
				vals[k] = nil
			}
			if len(vals[k]) < op.bytes {
				vals[k] = make([]byte, op.bytes)
			}
		}
	}
	for k, v := range vals {
		if len(v) == 0 {
			vals[k] = make([]byte, 64)
		}
	}
	ops = slices.Clone(ops)
	if !have["get"] {
		for _, k := range keys {
			ops = append(ops, keyOp{op: "get", keys: []string{k}})
		}
	}
	if !have["set"] && !have["update"] {
		for _, k := range keys {
			ops = append(ops, keyOp{op: "set", keys: []string{k}})
		}
	}
	if !have["mget"] {
		for i := 0; i+5 <= len(keys); i += 5 {
			ops = append(ops, keyOp{op: "mget", keys: keys[i : i+5]})
		}
	}
	return ops, vals
}

func populate(ctx context.Context, st kvstore.Store, vals map[string][]byte) error {
	for k, v := range vals {
		if err := st.Set(ctx, k, v); err != nil {
			return err
		}
	}
	return nil
}

func shardedOver(groups int) (kvstore.Store, error) {
	gs := make([]*kvstore.ShardGroup, groups)
	for i := range gs {
		g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", i), kvstore.NewLocal(64), kvstore.NewLocal(64))
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	coord, err := kvstore.NewCoordinator(gs...)
	if err != nil {
		return nil, err
	}
	return kvstore.NewSharded(coord, 1)
}

// decoratorProbes replays the key trace against each store decorator alone,
// over embedded stores holding the trace's keys: what one layer costs with
// nothing else in the way.
func decoratorProbes(ctx context.Context, res *runResult, recorded []keyOp) error {
	ops, vals := probeOps(recorded)
	if len(vals) == 0 {
		return fmt.Errorf("decorator probes: the replay recorded no store operation at all")
	}
	run := func(st kvstore.Store) (opTimes, error) {
		if err := populate(ctx, st, vals); err != nil {
			return opTimes{}, err
		}
		return replayKeyOps(ctx, st, ops, vals)
	}

	local, err := run(kvstore.NewLocal(64))
	if err != nil {
		return err
	}
	res.set("kvstore.local_get_ns", "ns", median(local.get))
	res.set("kvstore.local_set_ns", "ns", median(local.set))

	srv, err := kvstore.NewServer(ctx, kvstore.NewLocal(64), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }() // teardown of a loopback listener
	cli, err := kvstore.DialContext(ctx, srv.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = cli.Close() }() // teardown of pooled loopback conns
	net, err := run(cli)
	if err != nil {
		return err
	}
	res.set("kvstore.net_get_us", "us", median(net.get)/1e3)
	res.set("kvstore.net_mget_us", "us", median(net.mget)/1e3)

	resilient, err := run(kvstore.NewResilient(kvstore.NewLocal(64), kvstore.DefaultResilienceConfig(), 1))
	if err != nil {
		return err
	}
	res.set("kvstore.resilient_self_ns", "ns", median(resilient.get)-median(local.get))

	oneGroup, err := shardedOver(1)
	if err != nil {
		return err
	}
	group, err := run(oneGroup)
	if err != nil {
		return err
	}
	res.set("kvstore.shardgroup_get_ns", "ns", median(group.get))
	res.set("kvstore.shardgroup_set_ns", "ns", median(group.set))

	twoGroups, err := shardedOver(2)
	if err != nil {
		return err
	}
	routed, err := run(twoGroups)
	if err != nil {
		return err
	}
	res.set("kvstore.sharded_self_ns", "ns", median(routed.get)-median(local.get))

	repl, err := kvstore.NewReplicated(kvstore.NewLocal(64), kvstore.NewLocal(64))
	if err != nil {
		return err
	}
	replicated, err := run(repl)
	if err != nil {
		return err
	}
	res.set("kvstore.replicated_set_ns", "ns", median(replicated.set))
	return nil
}
