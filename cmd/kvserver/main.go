// Command kvserver runs the distributed memory-based key-value store as a
// standalone TCP service (§5.1's storage tier). Point recserve at it with
// -kv to split the pipeline across processes:
//
//	kvserver -addr 127.0.0.1:7700 &
//	recserve -kv 127.0.0.1:7700
//
// For failover drills, -chaos-fail-rate makes the backing store fail that
// fraction of operations (seeded, so a drill replays): run two kvservers,
// one with chaos, point recserve -shards a,b at both (one primary/backup
// group), and watch /stats count the retries, breaker trips, promotions and
// sync skips.
//
// With -shard-groups N, the served store is the horizontally partitioned
// tier behind one endpoint: N primary/backup shard groups under a
// coordinator, fronted by a sharded router — every write survives a primary
// failure by backup promotion. Chaos composes: the injector then sits on
// group 0's primary, so a drill exercises the promotion path instead of the
// whole store.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"vidrec/internal/kvstore"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7700", "TCP listen address")
		shards      = flag.Int("shards", 64, "shard count (rounded up to a power of two)")
		shardGroups = flag.Int("shard-groups", 0, "serve the partitioned tier: N in-process primary/backup shard groups behind a sharded router (0: plain store)")
		report      = flag.Duration("report", time.Minute, "stats reporting interval (0 disables)")
		chaosRate   = flag.Float64("chaos-fail-rate", 0, "fraction of operations to fail for resilience drills (0 disables)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for the chaos fault injector")
	)
	flag.Parse()
	if *chaosRate < 0 || *chaosRate > 1 {
		fmt.Fprintln(os.Stderr, "kvserver: -chaos-fail-rate must be in [0, 1]")
		os.Exit(2)
	}
	if *shardGroups < 0 || *shardGroups > 256 {
		fmt.Fprintln(os.Stderr, "kvserver: -shard-groups must be in 0..256")
		os.Exit(2)
	}

	// Root context for the process: cancelled on the first SIGINT/SIGTERM,
	// which fails any backing-store call still in flight during shutdown.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	backing := kvstore.NewLocal(*shards)
	var store kvstore.Store = backing
	var chaos *kvstore.Faulty
	if *chaosRate > 0 {
		chaos = kvstore.NewFaulty(backing, *chaosSeed)
		chaos.SetSchedule([]kvstore.FaultPhase{{FailRate: *chaosRate}})
		store = chaos
	}
	if *shardGroups > 0 {
		// Shard-group mode: `backing` (with its chaos wrapper, if any) becomes
		// group 0's primary; every other replica is a fresh Local. The served
		// store is the router, so clients get slot routing and promotion
		// semantics over the same wire protocol.
		groups := make([]*kvstore.ShardGroup, *shardGroups)
		for gi := range groups {
			primary := store
			if gi > 0 {
				primary = kvstore.NewLocal(*shards)
			}
			g, err := kvstore.NewShardGroup(fmt.Sprintf("g%d", gi), primary, kvstore.NewLocal(*shards))
			if err != nil {
				fmt.Fprintln(os.Stderr, "kvserver:", err)
				os.Exit(1)
			}
			groups[gi] = g
		}
		coord, err := kvstore.NewCoordinator(groups...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvserver:", err)
			os.Exit(1)
		}
		router, err := kvstore.NewSharded(coord, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvserver:", err)
			os.Exit(1)
		}
		store = router
	}
	srv, err := kvstore.NewServer(ctx, store, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
	switch {
	case *shardGroups > 0:
		log.Printf("kvstore serving on %s with %d shard groups (%d slots), chaos fail rate %.3f",
			srv.Addr(), *shardGroups, kvstore.NumShardSlots, *chaosRate)
	case chaos != nil:
		log.Printf("kvstore serving on %s with %d shards, chaos fail rate %.3f (seed %d)",
			srv.Addr(), backing.Shards(), *chaosRate, *chaosSeed)
	default:
		log.Printf("kvstore serving on %s with %d shards", srv.Addr(), backing.Shards())
	}

	stopReport := make(chan struct{})
	var reportWG sync.WaitGroup
	if *report > 0 {
		reportWG.Add(1)
		go func() {
			defer reportWG.Done()
			ticker := time.NewTicker(*report)
			defer ticker.Stop()
			for {
				select {
				case <-stopReport:
					return
				case <-ticker.C:
					snap := backing.Stats().Snapshot()
					keys, _ := backing.Len(ctx) // fails only once ctx is cancelled
					if chaos != nil {
						log.Printf("keys=%d gets=%d sets=%d hit_rate=%.3f chaos_injected=%d",
							keys, snap.Gets, snap.Sets, snap.HitRate(), chaos.Injected())
					} else {
						log.Printf("keys=%d gets=%d sets=%d hit_rate=%.3f",
							keys, snap.Gets, snap.Sets, snap.HitRate())
					}
				}
			}
		}()
	}

	<-ctx.Done()
	log.Print("shutting down")
	close(stopReport)
	reportWG.Wait()
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
