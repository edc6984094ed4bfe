// Command axserve serves robustness suites over HTTP: a job-oriented
// façade (internal/service) over the experiment engine. Clients POST
// experiment.Spec JSON to /v1/suites and get back a job ID derived
// from the spec's canonical content hash — identical suites
// deduplicate onto one job, however many clients submit them — then
// follow progress over SSE and fetch the finished report as JSON or
// CSV. All jobs share one crafted-batch/prediction cache, whose
// hit/miss/eviction counters are scrapable at /metrics.
//
//	axserve -addr :8080 -jobs 2
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST --data-binary @testdata/specs/fig4.json localhost:8080/v1/suites
//	curl -s localhost:8080/v1/suites/<id>
//	curl -N localhost:8080/v1/suites/<id>/events
//	curl -s "localhost:8080/v1/suites/<id>/report?format=csv"
//	curl -s -X DELETE localhost:8080/v1/suites/<id>
//
// On SIGTERM/SIGINT the server stops accepting work and drains:
// running and queued jobs get -drain to finish before being cancelled.
//
// With -data-dir set, the server persists across restarts: crafted
// batches and predictions go to a size-bounded disk cache tier
// (<dir>/cache, capped by -disk-mb), and every job's submission, event
// stream, and finished report go to a write-ahead log (<dir>/wal). A
// restarted server re-serves finished reports byte-identically without
// recompute and re-enqueues jobs the previous process never finished —
// including those force-cancelled by an expired drain — under the same
// job IDs. Without -data-dir, nothing touches disk (today's behavior).
//
// With -peers set, multi-grid suites shard across nodes: this node
// keeps some grids, fans the rest out to its peers' internal shard
// endpoints, and assembles one report, byte-identical to a single-node
// run. A peer that fails mid-shard, or sends a report that does not
// check out, degrades to local fallback, never to a failed job. Nodes sharing one -data-dir also
// share the disk cache tier, so a batch crafted on one shard replays
// everywhere. -cell-workers > 1 additionally runs that many cells of
// each suite concurrently on this node.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 2, "suites running concurrently (each still parallelises internally)")
	queue := flag.Int("queue", 64, "queued jobs accepted beyond the running ones")
	cacheMB := flag.Int64("cache-mb", 0, "crafted-batch cache budget in MiB (0 = default 128)")
	retain := flag.Int("retain", 0, "finished jobs retained for dedup/replay (0 = default 1024)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
	debugAddr := flag.String("debug-addr", "", "pprof listen address, e.g. 127.0.0.1:6060 (empty = disabled)")
	dataDir := flag.String("data-dir", "", "persistence root: disk cache tier + write-ahead job log (empty = memory only)")
	diskMB := flag.Int64("disk-mb", 512, "disk cache tier retention bound in MiB (with -data-dir)")
	peers := flag.String("peers", "", "comma-separated peer axserve base URLs to shard multi-grid suites across")
	cellWorkers := flag.Int("cell-workers", 1, "suite cells each job runs concurrently on this node (1 = serial)")
	flag.Parse()

	if *debugAddr != "" {
		// Live kernel profiles under server load: a separate listener so
		// the profiling surface is never exposed on the service address.
		//
		//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
		//	curl -s http://127.0.0.1:6060/debug/pprof/heap > heap.pb.gz
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("axserve: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("axserve: pprof listener: %v", err)
			}
		}()
	}

	cfg := core.CacheConfig{}
	if *cacheMB < 0 {
		cli.Fail("axserve", fmt.Errorf("negative -cache-mb %d", *cacheMB))
	}
	if *cacheMB > 0 {
		// CraftBudget counts float32 elements, not bytes.
		cfg.CraftBudget = *cacheMB << 20 / 4
	}
	var wal *store.Store
	if *dataDir != "" {
		if *diskMB <= 0 {
			cli.Fail("axserve", fmt.Errorf("non-positive -disk-mb %d", *diskMB))
		}
		// Two stores, two durability contracts: the cache tier is a
		// size-bounded best-effort artifact cache (async writes, oldest
		// segments GCed); the WAL is the job-correctness record (synced
		// writes, unbounded — its growth is bounded by -retain eviction
		// and suite sizes, not by dropping records a resume might need).
		diskCache, err := store.Open(store.Options{
			Dir:      *dataDir + "/cache",
			MaxBytes: *diskMB << 20,
		})
		if err != nil {
			cli.Fail("axserve", err)
		}
		defer diskCache.Close()
		cfg.Disk = diskCache
		wal, err = store.Open(store.Options{Dir: *dataDir + "/wal", Sync: true})
		if err != nil {
			cli.Fail("axserve", err)
		}
		defer wal.Close()
		log.Printf("axserve: persisting to %s (cache bound %d MiB)", *dataDir, *diskMB)
	}
	peerURLs, err := cli.ParsePeers(*peers)
	if err != nil {
		cli.Fail("axserve", err)
	}
	if *cellWorkers < 0 {
		cli.Fail("axserve", fmt.Errorf("negative -cell-workers %d", *cellWorkers))
	}
	m := service.NewManager(service.Config{
		Workers:      *jobs,
		QueueDepth:   *queue,
		Cache:        core.NewCache(cfg),
		MaxJobs:      *retain,
		Log:          wal,
		Peers:        peerURLs,
		CellParallel: *cellWorkers,
	})
	if len(peerURLs) > 0 {
		log.Printf("axserve: sharding multi-grid suites across %d peers", len(peerURLs))
	}
	srv := &http.Server{Addr: *addr, Handler: service.NewHandler(m)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("axserve: listening on %s (%d concurrent jobs)", *addr, *jobs)

	select {
	case err := <-errCh:
		// The listener died on its own (bad address, port in use).
		cli.Fail("axserve", err)
	case <-ctx.Done():
	}

	log.Printf("axserve: draining (up to %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job pool first: when jobs finish (or the deadline
	// force-cancels them), their SSE streams close, which lets the
	// HTTP shutdown below complete instead of hanging on subscribers.
	if err := m.Close(dctx); err != nil {
		log.Printf("axserve: forced drain: %v", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
	}
	log.Printf("axserve: bye")
}
