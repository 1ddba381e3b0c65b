// Command ehserver serves a vmshortcut.Store over TCP with the binary
// wire protocol of package server: GET/PUT/DEL/STATS frames, with
// pipelined requests coalesced into store batch calls.
//
// The served index's shape is a handful of flags: kind, shard count and
// capacity pre-sizing. Shortcut-EH runs with the paper's parameters (load
// factor 0.35, a 25 ms mapper tick, fan-in threshold 8).
//
// With -wal-dir the store is durable: every mutation batch is logged
// (and, with -fsync always, fsynced — group-committed — before the ack),
// and startup recovers the keyspace from the newest snapshot plus the
// WAL tail before the listener comes up. kill -9 loses nothing that was
// acknowledged.
//
// A durable server is also a replication primary: replicas started with
// -replica-of stream its WAL (full-syncing via snapshot when needed) and
// serve reads; -repl-sync holds each write's acknowledgement until a
// connected replica applied it, making failover lossless for every
// acknowledged write. SIGUSR1 (or a client PROMOTE frame) promotes a
// replica to primary.
//
// SIGINT/SIGTERM shut down gracefully: accepting stops, in-flight and
// pipelined requests drain, the shortcut directory is given -waitsync to
// catch up, a final snapshot is taken (-snapshot-on-exit), and the store
// closes.
//
// Usage:
//
//	ehserver -addr :6380 -kind shortcut-eh -shards 4
//	ehserver -kind eh -capacity 10000000
//	ehserver -kind eh -wal-dir /var/lib/ehserver -fsync always -snapshot-every 1000000
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/repl"
	"vmshortcut/server"
)

func main() {
	// Serving flags.
	addr := flag.String("addr", ":6380", "listen address")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget before connections are closed forcibly")
	waitSync := flag.Duration("waitsync", 10*time.Second, "how long shutdown waits for asynchronous maintenance (the Shortcut-EH mapper) to catch up")

	// Observability: the admin listener is a second, HTTP port — metrics
	// scraping and profiling never contend with the binary protocol, and
	// /readyz keeps answering (503) while the main listener drains.
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics, /statsz, /healthz, /readyz and /debug/pprof (empty = no admin listener)")
	slowOp := flag.Duration("slow-op", 10*time.Millisecond, "log batches whose server-side time exceeds this, with a per-stage breakdown (0 = disabled)")

	// Durability: a WAL directory makes the store restart-safe — Open
	// recovers the keyspace from the newest snapshot plus the log tail
	// before the listener comes up, so a served GET never sees a
	// half-recovered store.
	walDir := flag.String("wal-dir", "", "write-ahead-log directory; empty serves from memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always (ack ⇒ durable) | interval | off")
	fsyncInterval := flag.Duration("fsync-interval", 0, "background sync period for -fsync interval (default 100ms)")
	snapshotEvery := flag.Int("snapshot-every", 0, "take a snapshot (and compact the WAL) every N log records — one record is one coalesced batch (0 = only on shutdown)")
	snapshotOnExit := flag.Bool("snapshot-on-exit", true, "take a final snapshot and compact the WAL during graceful shutdown")

	// Replication: -replica-of makes this server a read replica of a
	// primary; the replication-source side needs no flag beyond -wal-dir
	// (any durable server serves REPLSYNC streams). SIGUSR1 or a client
	// PROMOTE frame promotes a replica to primary at runtime.
	replicaOf := flag.String("replica-of", "", "replicate from this primary (host:port); serves reads only until promoted (SIGUSR1 or a PROMOTE frame)")
	stalenessBound := flag.Duration("staleness-bound", 0, "refuse reads with STALE after losing the primary for this long (0 = serve reads indefinitely; requires -replica-of)")
	replSync := flag.Bool("repl-sync", false, "synchronous replication: acknowledge a write only after a connected replica applied it (requires -wal-dir)")

	// Store shape: the Open options a deployment picks; -capacity 0 leaves
	// the index to grow from one bucket.
	kindName := flag.String("kind", "shortcut-eh", "index kind: shortcut-eh | eh")
	shards := flag.Int("shards", 1, "hash-partition the keyspace across this many independent shards")
	capacity := flag.Int("capacity", 0, "pre-size for this many entries")
	flag.Parse()

	kind, err := vmshortcut.ParseKind(*kindName)
	if err != nil {
		log.Fatal(err)
	}
	if *stalenessBound != 0 && *replicaOf == "" {
		log.Fatal("-staleness-bound requires -replica-of: only a replica has a primary to be stale against")
	}
	if *replSync && *walDir == "" {
		log.Fatal("-repl-sync requires -wal-dir: replication ships the write-ahead log")
	}

	// Metrics exist even without -admin: the STATS frame's obs section and
	// the slow-op log want them, and pre-registered counters cost nothing
	// until recorded into.
	metrics := server.NewMetrics(obs.NewRegistry())

	opts := []vmshortcut.Option{
		vmshortcut.WithShards(*shards),
		// The server runs one goroutine per connection; shards=1 still
		// needs the readers-writer wrapper.
		vmshortcut.WithConcurrency(true),
	}
	if *capacity > 0 {
		opts = append(opts, vmshortcut.WithCapacity(*capacity))
	}
	if *walDir != "" {
		mode, err := vmshortcut.ParseFsyncMode(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, vmshortcut.WithWAL(*walDir), vmshortcut.WithFsync(mode),
			// fsync latency is recorded by the WAL itself (a group commit
			// serves many batches; per-batch attribution would be a lie).
			vmshortcut.WithFsyncHist(metrics.Pipeline().Hist(obs.StageWALFsync)))
		if *fsyncInterval > 0 {
			opts = append(opts, vmshortcut.WithFsyncInterval(*fsyncInterval))
		}
		if *snapshotEvery > 0 {
			opts = append(opts, vmshortcut.WithSnapshotEvery(*snapshotEvery))
		}
	} else {
		// An operator passing durability flags without -wal-dir believes
		// the server is durable when it is memory-only; refuse rather
		// than silently dropping the flags.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fsync", "fsync-interval", "snapshot-every", "snapshot-on-exit":
				log.Fatalf("-%s requires -wal-dir: without a WAL directory the server is memory-only", f.Name)
			}
		})
	}

	openStart := time.Now()
	store, err := vmshortcut.Open(kind, opts...)
	if err != nil {
		log.Fatalf("open %s: %v", kind, err)
	}
	if *walDir != "" {
		log.Printf("ehserver: recovered %d entries from %s in %s (fsync=%s)",
			store.Len(), *walDir, time.Since(openStart).Round(time.Millisecond), *fsync)
	}

	scfg := server.Config{
		Store:   store,
		Logf:    log.Printf,
		Metrics: metrics,
		SlowOp:  *slowOp,
	}

	// Replication wiring. The Config fields are interfaces: assign only
	// concrete non-nil values, or the server's nil checks pass vacuously.
	var source *repl.Source
	var follower *repl.Follower
	if rep, ok := vmshortcut.AsReplicable(store); ok {
		// Every durable server serves replication streams — including a
		// replica, which after promotion is a full primary for the next
		// tier of followers.
		source = repl.NewSource(rep, repl.SourceConfig{
			Sync: *replSync,
			Logf: log.Printf,
		})
		scfg.Repl = source
	}
	if *replicaOf != "" {
		follower, err = repl.StartFollower(repl.FollowerConfig{
			Primary:   *replicaOf,
			Store:     store,
			BaseDir:   *walDir,
			Staleness: *stalenessBound,
			Pipeline:  metrics.Pipeline(),
			Logf:      log.Printf,
		})
		if err != nil {
			store.Close()
			log.Fatalf("replica: %v", err)
		}
		scfg.Replica = follower
		log.Printf("ehserver: replicating from %s (staleness-bound=%v)", *replicaOf, *stalenessBound)
	}

	srv, err := server.New(scfg)
	if err != nil {
		log.Fatal(err)
	}

	// The admin listener outlives the drain on purpose: /readyz flips to
	// 503 the moment shutdown starts (load balancers stop routing), while
	// /metrics stays scrapable until the store is about to close.
	var adminLn net.Listener
	if *adminAddr != "" {
		adminLn, err = net.Listen("tcp", *adminAddr)
		if err != nil {
			store.Close()
			log.Fatalf("admin listen: %v", err)
		}
		go http.Serve(adminLn, srv.AdminHandler())
		log.Printf("ehserver: admin HTTP on %s (/metrics /statsz /healthz /readyz /debug/pprof)", adminLn.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1)
	serveErr := make(chan error, 1)
	go func() {
		log.Printf("ehserver: %s (shards=%d) listening on %s", kind, *shards, *addr)
		serveErr <- srv.ListenAndServe(*addr)
	}()

wait:
	for {
		select {
		case err := <-serveErr:
			store.Close()
			log.Fatalf("serve: %v", err)
		case sig := <-sigs:
			if sig == syscall.SIGUSR1 {
				if follower == nil {
					log.Printf("ehserver: SIGUSR1 ignored: not a replica")
					continue
				}
				// Promote drains the replication stream before returning;
				// do it off the signal loop so shutdown stays responsive.
				go func() {
					lsn := follower.Promote()
					log.Printf("ehserver: promoted to primary at LSN %d", lsn)
				}()
				continue
			}
			log.Printf("ehserver: %v — draining", sig)
			break wait
		}
	}

	// Graceful shutdown: drain connections, let asynchronous maintenance
	// catch up, then release the store.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("ehserver: drain incomplete: %v", err)
	}
	<-serveErr // Serve has returned once the listener died
	if adminLn != nil {
		adminLn.Close()
	}
	if source != nil {
		source.Close()
	}
	if follower != nil {
		follower.Close()
	}
	if !store.WaitSync(*waitSync) {
		log.Printf("ehserver: WaitSync(%v) timed out", *waitSync)
	}
	// With the connections drained, a final snapshot bounds the next
	// start's recovery time and lets the WAL be compacted away.
	if d, ok := vmshortcut.AsDurable(store); ok && *snapshotOnExit {
		if err := d.Snapshot(); err != nil {
			log.Printf("ehserver: final snapshot: %v", err)
		} else if removed, err := d.CompactWAL(); err != nil {
			log.Printf("ehserver: compacting WAL: %v", err)
		} else {
			log.Printf("ehserver: final snapshot taken, %d WAL segments compacted", removed)
		}
	}
	c := srv.Counters()
	st := store.Stats()
	log.Printf("ehserver: served %d ops over %d conns (%d coalesced batches carrying %d ops, %d errors); store: %d entries, batches I/L/D %d/%d/%d",
		c.Ops, c.TotalConns, c.CoalescedBatches, c.CoalescedOps, c.Errors,
		st.Entries, st.InsertBatches, st.LookupBatches, st.DeleteBatches)
	if err := store.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
}
