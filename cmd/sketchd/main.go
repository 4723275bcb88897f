// Command sketchd serves sketch requests over HTTP: a thin shell around
// internal/server wiring flags to the service/server configs and turning
// SIGTERM/SIGINT into a graceful drain — /healthz flips to 503, in-flight
// sketches finish (bounded by -drain-timeout), then the plan cache is
// released. GET /metrics serves the Prometheus text exposition of every
// layer's counters and stage histograms; -pprof additionally mounts
// net/http/pprof under /debug/pprof/.
//
// Quick start (single worker):
//
//	sketchd -addr :7464 -cache 64 -max-inflight 8 -max-queue 64
//
// and from Go, sketchsp.NewClient("http://host:7464", sketchsp.ClientConfig{}).
//
// Coordinator mode (-peers): instead of executing locally, the daemon
// splits every request into nnz-balanced column shards, routes each shard
// to a worker by consistent hashing on the shard's matrix fingerprint
// (so re-submitted matrices hit the same workers' plan caches), and
// merges the bit-exact partial sketches:
//
//	sketchd -addr :7464 -peers http://w1:7464,http://w2:7464,http://w3:7464
//
// The coordinator speaks the same protocol as a worker — clients need no
// changes — and /metrics serves the sketchsp_shard_* families instead of
// the local service ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sketchsp/internal/jobs"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
	"sketchsp/internal/shard"
)

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:7464", "listen address (host:port)")
		addrFile       = flag.String("addr-file", "", "write the bound address to this file once listening (for :0 in scripts/tests)")
		cache          = flag.Int("cache", 32, "plan cache capacity (distinct matrix/option keys)")
		maxInFlight    = flag.Int("max-inflight", 0, "concurrent executes admitted (0 = GOMAXPROCS)")
		maxQueue       = flag.Int("max-queue", 0, "waiters admitted beyond in-flight before load shed (0 = 4x in-flight)")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline cap (0 = none; client header can only tighten)")
		maxBody        = flag.Int64("max-body", 1<<30, "largest accepted request body in bytes")
		maxSketch      = flag.Int64("max-sketch", 1<<30, "largest sketch (8*d*n bytes) a request may demand")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		pprofOn        = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving port")
		storeMB        = flag.Int64("store-mb", 0, "content-addressed matrix store budget in MiB (0 = default 256, negative = unbounded)")
		sketchCacheMB  = flag.Int64("sketch-cache-mb", 0, "cached-sketch (Â) budget in MiB for by-reference serving (0 = default 64, negative = unbounded)")
		precondMB      = flag.Int64("precond-cache-mb", 0, "preconditioner-factor cache budget in MiB behind /v1/solve (0 = default 32, negative = unbounded)")

		solveSyncNNZ = flag.Int("solve-sync-nnz", 0, "nnz threshold above which POST /v1/solve queues a job instead of solving inline (0 = default 1M, negative = always async)")
		jobWorkers   = flag.Int("jobs", 0, "concurrent async solve jobs (0 = default 2)")
		jobQueue     = flag.Int("job-queue", 0, "queued async solves before Submit sheds with overloaded (0 = default 64)")
		jobTTL       = flag.Duration("job-ttl", 0, "how long a finished job's result stays fetchable (0 = default 10m)")
		jobResultMB  = flag.Int64("job-results-mb", 0, "summed result budget of finished jobs in MiB (0 = default 256, negative = unbounded)")

		peers         = flag.String("peers", "", "comma-separated worker base URLs; non-empty switches to coordinator mode")
		peersFile     = flag.String("peers-file", "", "file of worker base URLs (newline/comma separated, # comments); switches to coordinator mode, mutually exclusive with -peers")
		peersWatch    = flag.Duration("peers-watch", 2*time.Second, "poll interval for -peers-file membership updates (0 = read once)")
		shards        = flag.Int("shards", 0, "column shards per request in coordinator mode (0 = one per peer)")
		peerCooldown  = flag.Duration("peer-cooldown", 5*time.Second, "how long a failed peer is avoided by shard routing")
		hedgeQuantile = flag.Float64("hedge-quantile", 0, "latency quantile after which a slow shard RPC is hedged to the next peer (0 = off; try 0.95)")
		hedgeMaxDelay = flag.Duration("hedge-max-delay", 100*time.Millisecond, "hedge delay cap, also used while a peer's latency window is cold")
	)
	flag.Parse()
	if args := flag.Args(); len(args) != 0 {
		fmt.Fprintf(os.Stderr, "sketchd: unexpected arguments %q\n", args)
		flag.Usage()
		os.Exit(2)
	}

	// The two modes share every transport knob; they differ only in the
	// Backend behind the handler and in what cleanup runs after the drain.
	var (
		srv     *server.Server
		cleanup func()
		mode    string
	)
	cfg := server.Config{
		MaxBodyBytes:   *maxBody,
		MaxSketchBytes: *maxSketch,
		RequestTimeout: *requestTimeout,
		Pprof:          *pprofOn,
		SolveSyncNNZ:   *solveSyncNNZ,
		Jobs: jobs.Config{
			Workers:        *jobWorkers,
			MaxQueue:       *jobQueue,
			ResultTTL:      *jobTTL,
			MaxResultBytes: *jobResultMB << 20,
		},
	}
	if *peers != "" && *peersFile != "" {
		log.Fatalf("sketchd: -peers and -peers-file are mutually exclusive")
	}
	if *peers != "" || *peersFile != "" {
		var peerList []string
		if *peersFile != "" {
			var err error
			if peerList, err = shard.ReadPeersFile(*peersFile); err != nil {
				log.Fatalf("sketchd: peers-file: %v", err)
			}
		} else {
			for _, p := range strings.Split(*peers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peerList = append(peerList, p)
				}
			}
		}
		coord, err := shard.New(shard.Config{
			Peers:         peerList,
			Shards:        *shards,
			PeerCooldown:  *peerCooldown,
			HedgeQuantile: *hedgeQuantile,
			HedgeMaxDelay: *hedgeMaxDelay,
			StoreBytes:    *storeMB << 20,
		})
		if err != nil {
			log.Fatalf("sketchd: coordinator: %v", err)
		}
		cfg.Metrics = coord.Registry()
		srv = server.NewBackend(coord, cfg)
		stopWatch := func() {}
		if *peersFile != "" && *peersWatch > 0 {
			stopWatch = coord.WatchPeersFile(*peersFile, *peersWatch)
		}
		cleanup = func() { stopWatch(); coord.Close() }
		mode = fmt.Sprintf("coordinator over %d peers, %d shards/request", len(coord.Peers()), *shards)
	} else {
		svc := service.New(service.Config{
			Capacity:          *cache,
			MaxInFlight:       *maxInFlight,
			MaxQueue:          *maxQueue,
			RequestTimeout:    *requestTimeout,
			StoreBytes:        *storeMB << 20,
			SketchCacheBytes:  *sketchCacheMB << 20,
			PrecondCacheBytes: *precondMB << 20,
		})
		srv = server.New(svc, cfg)
		mode = fmt.Sprintf("worker (cache=%d inflight=%d queue=%d)", *cache, *maxInFlight, *maxQueue)
		cleanup = svc.Close
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sketchd: listen %s: %v", *addr, err)
	}
	if *addrFile != "" {
		// Atomic publish: scripts polling -addr-file never read a partial
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("sketchd: addr-file: %v", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Fatalf("sketchd: addr-file: %v", err)
		}
	}
	log.Printf("sketchd: serving on http://%s as %s (pprof=%v)", l.Addr(), mode, *pprofOn)

	// Serve until a termination signal, then drain: stop accepting, let
	// in-flight requests finish, and only then release the backend.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("sketchd: %v received, draining (timeout %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("sketchd: drain incomplete: %v", err)
		}
		if serveErr := <-errc; serveErr != nil && serveErr != http.ErrServerClosed {
			log.Printf("sketchd: serve: %v", serveErr)
		}
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			log.Fatalf("sketchd: serve: %v", err)
		}
	}
	cleanup()
	log.Printf("sketchd: stopped")
}
