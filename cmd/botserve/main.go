// Command botserve exposes botscope analyses over HTTP as JSON.
//
// Usage:
//
//	botserve -addr :8080 -scale 0.1 -seed 1
//	botserve -addr :8080 -in attacks.jsonl
//	botserve -addr :8080 -snapshot work.bscs        # reload a botgen snapshot
//	botserve -addr :8080 -shards 4                  # sharded live tier
//	botserve -shard-listen :9001 -shard-id 0        # one shard worker
//	botserve -addr :8080 -join 0=host:9001,1=host:9002
//
// Endpoints (single-process mode):
//
//	GET /healthz                           liveness
//	GET /api/summary                       Table III entity counts
//	GET /api/protocols                     Fig 1 breakdown
//	GET /api/daily                         Fig 2 daily series
//	GET /api/intervals[?family=pandora]    §III-B interval stats
//	GET /api/durations                     §III-C duration stats
//	GET /api/families                      per-family attack counts
//	GET /api/family/{name}/dispersion      §IV-A dispersion profile
//	GET /api/family/{name}/predict         Table IV forecast scores
//	GET /api/family/{name}/targets         Table V profile
//	GET /api/collaborations                Table VI
//	GET /api/chains                        §V-B multistage summary
//	GET /api/experiments                   experiment IDs
//	GET /api/experiments/{id}              one regenerated table/figure
//	POST /api/ingest                       stream JSONL attacks into the live analyzer
//	GET /api/live/summary                  live topline (always 200)
//	GET /api/live/daily                    live Fig 2 daily series
//	GET /api/live/intervals                live §III-B interval stats
//	GET /api/live/durations                live §III-C duration stats
//	GET /api/live/load                     live §II-B concurrent-load stats
//	GET /api/live/collaborations           live §V candidates (Table VI counters)
//
// Cluster modes serve the live plane (POST /api/ingest, /api/live/*,
// /healthz) plus the management surface:
//
//	GET  /api/cluster/status               routing state
//	POST /api/cluster/shards/{id}/leave    graceful leave + rebalance
//	POST /api/cluster/shards/{id}/join     rejoin at the last known address
//
// -shards N boots N in-process shard workers on loopback ports behind one
// frontend; -join connects the frontend to externally running shard
// workers (each started with -shard-listen/-shard-id); responses are
// byte-identical to the single-process live plane for any shard count.
// -rate-limit adds a per-client token bucket over every /api/* route.
//
// botserve shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"botscope"
	"botscope/internal/cluster"
	"botscope/internal/serve"
)

func main() {
	// SIGINT/SIGTERM cancel the context; serve drains in-flight requests
	// and exits cleanly instead of dropping connections mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "botserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("botserve", flag.ContinueOnError)
	var (
		addr  = fs.String("addr", ":8080", "listen address")
		seed  = fs.Int64("seed", 1, "generation seed")
		scale = fs.Float64("scale", 0.1, "workload scale; 1.0 = paper size")
		in    = fs.String("in", "", "serve this JSONL attack file instead of generating")
		snap  = fs.String("snapshot", "", "serve this binary columnar snapshot (.bscs) instead of generating")

		shards      = fs.Int("shards", 0, "boot an in-process sharded live tier with this many workers")
		join        = fs.String("join", "", "connect to external shard workers: id=host:port,...")
		shardListen = fs.String("shard-listen", "", "run as one shard worker on this address (no HTTP)")
		shardID     = fs.Int("shard-id", 0, "this worker's shard id (with -shard-listen)")
		queueDepth  = fs.Int("queue-depth", 0, "per-shard ingest queue bound (0 = default)")
		rateLimit   = fs.Float64("rate-limit", 0, "per-client requests/sec on /api/* (0 = unlimited)")
		rateBurst   = fs.Int("rate-burst", 10, "per-client burst with -rate-limit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *shardListen != "":
		return runShard(ctx, *shardID, *shardListen, *queueDepth)
	case *shards > 0 || *join != "":
		return runCluster(ctx, *addr, *shards, *join, *queueDepth, *rateLimit, *rateBurst)
	}

	var (
		store *botscope.Store
		err   error
	)
	if *snap != "" && *in != "" {
		return fmt.Errorf("-snapshot and -in are mutually exclusive")
	}
	if *snap != "" {
		f, ferr := os.Open(*snap)
		if ferr != nil {
			return ferr
		}
		store, err = botscope.ReadSnapshot(f)
		_ = f.Close()
	} else if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			return ferr
		}
		attacks, rerr := botscope.ReadJSONL(f)
		_ = f.Close()
		if rerr != nil {
			return rerr
		}
		store, err = botscope.NewStore(attacks, nil, nil)
	} else {
		fmt.Fprintf(os.Stderr, "generating workload (seed %d, scale %.3f)...\n", *seed, *scale)
		store, err = botscope.Generate(botscope.GenerateConfig{Seed: *seed, Scale: *scale})
	}
	if err != nil {
		return err
	}
	defer store.Close()

	srv := serve.New(store, *scale)
	fmt.Fprintf(os.Stderr, "serving %d attacks on %s\n", store.NumAttacks(), *addr)
	return srv.ListenAndServeContext(ctx, *addr)
}

// runShard runs this process as one shard worker: it owns a partition of
// the live stream and answers the frontend's wire protocol until
// cancelled.
func runShard(ctx context.Context, id int, listen string, queueDepth int) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shard %d serving wire protocol on %s\n", id, ln.Addr())
	return cluster.NewShard(id, queueDepth).Serve(ctx, ln)
}

// runCluster serves the live plane over a shard fleet: in-process workers
// (-shards) or external ones (-join).
func runCluster(ctx context.Context, addr string, n int, join string, queueDepth int, rateLimit float64, rateBurst int) error {
	var front *cluster.Frontend
	switch {
	case n > 0 && join != "":
		return fmt.Errorf("-shards and -join are mutually exclusive")
	case n > 0:
		local, err := cluster.StartLocal(ctx, n, queueDepth, 0, 0)
		if err != nil {
			return err
		}
		defer local.Close()
		front = local.Frontend
		fmt.Fprintf(os.Stderr, "booted %d in-process shards\n", n)
	default:
		addrs, err := parseJoin(join)
		if err != nil {
			return err
		}
		front = cluster.NewFrontend(0, 0)
		if err := front.Connect(ctx, addrs); err != nil {
			return err
		}
		defer front.Close()
		fmt.Fprintf(os.Stderr, "joined %d external shards\n", len(addrs))
	}

	opts := []serve.LiveOption{serve.WithClusterAdmin(front)}
	if rateLimit > 0 {
		opts = append(opts, serve.WithRateLimiter(cluster.NewRateLimiter(rateLimit, rateBurst)))
	}
	srv := serve.NewLiveServer(front, opts...)
	fmt.Fprintf(os.Stderr, "serving live cluster on %s\n", addr)
	return srv.ListenAndServeContext(ctx, addr)
}

// parseJoin parses "0=host:9001,1=host:9002" into the frontend's address
// map.
func parseJoin(join string) (map[int]string, error) {
	addrs := make(map[int]string)
	for _, part := range strings.Split(join, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, hostport, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-join entry %q: want id=host:port", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("-join entry %q: bad shard id: %w", part, err)
		}
		addrs[n] = strings.TrimSpace(hostport)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-join lists no shards")
	}
	return addrs, nil
}
