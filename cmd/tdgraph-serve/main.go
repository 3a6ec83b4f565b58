// Command tdgraph-serve runs the durable streaming ingestion service:
// a workload (or SNAP edge-list file) is streamed through the bounded
// admission queue into a write-ahead-logged session with rotating
// checkpoints, so the run survives kill -9 at any instant — restart
// with the same -wal and -ckpt paths and it resumes from the newest
// checkpoint plus WAL replay, losing nothing past the last fsync
// barrier.
//
// Usage:
//
//	tdgraph-serve -wal /var/lib/tdgraph/wal -ckpt /var/lib/tdgraph/ckpt.tds \
//	              -dataset LJ -scale 0.25 -algo sssp -batches 16
//	tdgraph-serve -wal ./wal -walsync interval:8 -admit shed -queue 32
//	tdgraph-serve -wal ./wal -engine native -algo sssp   # incremental native engine
//
// Self-driving cluster: start each member with -role auto and the
// full peer ring; the members elect a leader among themselves, detect
// its death by missed heartbeats, elect a successor at a higher term,
// and rejoin (or reseed) deposed members — no operator in the loop.
// Every acknowledged batch is fsynced on a quorum before it is acked,
// so kill -9 of the leader loses nothing acknowledged. Drive traffic
// from outside with -role client, which follows redirect hints across
// failovers:
//
//	tdgraph-serve -role auto -listen :7401 -peers localhost:7402,localhost:7403 -wal ./a-wal -dataset AZ -seed 1
//	tdgraph-serve -role auto -listen :7402 -peers localhost:7401,localhost:7403 -wal ./b-wal -dataset AZ -seed 1
//	tdgraph-serve -role auto -listen :7403 -peers localhost:7401,localhost:7402 -wal ./c-wal -dataset AZ -seed 1
//	tdgraph-serve -role client -peers localhost:7401,localhost:7402,localhost:7403 -dataset AZ -seed 1
//
// -role is exactly solo | auto | client: solo is the single-node
// service above, auto is the only way to run a cluster member.
//
// SIGINT/SIGTERM begin a graceful drain: admission stops, queued
// batches are made durable, the WAL is flushed and a final checkpoint
// generation is cut.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

func main() {
	var (
		dataset  = flag.String("dataset", "AZ", "dataset preset (AZ,DL,GL,LJ,OR,FR)")
		input    = flag.String("input", "", "SNAP edge-list file (overrides -dataset)")
		scale    = flag.Float64("scale", 0.25, "preset scale factor")
		algoName = flag.String("algo", "sssp", "algorithm: sssp|bfs|sswp|cc")
		engName  = flag.String("engine", "sim", "processing engine: sim (functional topology-driven) | native (incremental parallel, production)")
		batches  = flag.Int("batches", 8, "number of update batches to stream")
		batchSz  = flag.Int("batch", 0, "updates per batch (0 = edges/20)")
		addFrac  = flag.Float64("add", 0.75, "fraction of additions per batch")
		seed     = flag.Int64("seed", 1, "workload and injection seed")

		walDir    = flag.String("wal", "", "write-ahead-log directory (required)")
		walSync   = flag.String("walsync", "batch", "WAL fsync policy: batch | interval:N | off")
		segBytes  = flag.Int64("segbytes", 4<<20, "WAL segment rotation threshold in bytes")
		ckptPath  = flag.String("ckpt", "", "checkpoint path (empty = WAL-only recovery)")
		ckptEvery = flag.Int("ckpt-every", 16, "checkpoint every N ingested batches")
		ckptKeep  = flag.Int("ckpt-keep", 2, "checkpoint generations to retain")

		queueCap    = flag.Int("queue", 16, "ingest queue capacity in batches")
		admit       = flag.String("admit", "block", "admission policy when full: block | shed")
		maxMerge    = flag.Int("max-merge", 0, "coalesced batch size cap in updates (0 = unlimited)")
		queueBytes  = flag.Int64("queue-bytes", 0, "ingest queue byte bound in wire bytes (0 = unbounded)")
		maxRestarts = flag.Int("max-restarts", 3, "supervisor restart budget (-1 = unlimited)")
		slo         = flag.Duration("slo", 0, "ingest-latency objective; enables SLO-driven admission control (0 = off)")
		diskLow     = flag.Int64("disk-low-water", 0, "free-space floor in bytes under which ingest degrades to read-only (0 = ENOSPC-only degradation)")
		deadline    = flag.Duration("deadline", 0, "client: per-batch deadline propagated to the leader (0 = none)")

		faults   = flag.String("faults", "", "seeded WAL fault spec, e.g. 'wal-torn:4096,fsync-err:2,disk-full:1048576'")
		validate = flag.String("validate", "", "ingestion validation policy: none|reject|clamp|quarantine")
		verbose  = flag.Bool("v", false, "log supervisor events (restarts, shedding, poisonings)")

		role      = flag.String("role", "solo", "how to run: solo (single node) | auto (self-driving cluster member) | client (submit to a cluster)")
		peers     = flag.String("peers", "", "auto: the other members' addresses; client: cluster addresses to try (comma-separated)")
		listen    = flag.String("listen", "", "auto: address to accept cluster connections on (required)")
		advertise = flag.String("advertise", "", "auto: address peers dial this node by (default -listen)")
		quorum    = flag.Int("quorum", 0, "auto: required acks counting the leader itself (0 = majority of cluster)")
	)
	flag.Parse()

	if err := validateRole(*role, *walDir, *listen, *peers); err != nil {
		fatal(err)
	}
	if *role != "client" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fatal(err)
		}
	}

	var edges []graph.Edge
	var nv int
	if *input != "" {
		var err error
		edges, nv, err = graph.LoadSNAPFile(*input)
		if err != nil {
			fatal(err)
		}
	} else {
		p, err := gen.PresetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		edges, nv = p.Generate(*scale)
	}

	var alg func() tdgraph.Algorithm
	switch *algoName {
	case "sssp":
		alg = func() tdgraph.Algorithm { return tdgraph.NewSSSP(0) }
	case "bfs":
		alg = func() tdgraph.Algorithm { return tdgraph.NewBFS(0) }
	case "sswp":
		alg = func() tdgraph.Algorithm { return tdgraph.NewSSWP(0) }
	case "cc":
		alg = func() tdgraph.Algorithm { return tdgraph.NewCC() }
	default:
		fatal(fmt.Errorf("unknown algorithm %q (sssp|bfs|sswp|cc)", *algoName))
	}

	pol, err := stream.ParsePolicy(*validate)
	if err != nil {
		fatal(err)
	}
	syncPolicy, syncEvery, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		fatal(err)
	}
	admitPolicy, err := serve.ParseAdmitPolicy(*admit)
	if err != nil {
		fatal(err)
	}

	bs := *batchSz
	if bs <= 0 {
		bs = len(edges) / 20
		if bs < 100 {
			bs = 100
		}
	}
	w := stream.Build(edges, nv, stream.Config{
		WarmupFraction: 0.5, BatchSize: bs, AddFraction: *addFrac,
		NumBatches: *batches, Seed: *seed,
	})
	fmt.Printf("graph: %d vertices, %d edges; warmup %d edges; %d batches of %d updates\n",
		nv, len(edges), len(w.Warmup), len(w.Batches), bs)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *role == "client" {
		runClient(ctx, *peers, *seed, *deadline, w.Batches, *verbose)
		return
	}

	walFS := wal.FS(wal.OSFS{})
	if *faults != "" {
		inj, err := fault.Parse(*faults, *seed)
		if err != nil {
			fatal(err)
		}
		walFS = inj.FS(walFS)
		fmt.Printf("fault injection armed on the WAL filesystem: %s\n", *faults)
	}

	opts := tdgraph.SessionOptions{Validation: pol, MaxVertices: nv}
	switch *engName {
	case "sim", "":
		opts.Engine = tdgraph.EngineTopologyDriven
	case "native":
		opts.Engine = tdgraph.EngineNativeParallel
	default:
		fatal(fmt.Errorf("unknown engine %q (sim|native)", *engName))
	}
	cfg := serve.ServerConfig{
		Pipeline: serve.PipelineConfig{
			Bootstrap: func() (*tdgraph.Session, error) {
				fmt.Print("computing initial fixed point... ")
				start := time.Now()
				s, err := tdgraph.NewSession(alg(), w.Warmup, nv, opts)
				if err == nil {
					fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
				}
				return s, err
			},
			Algorithm:      alg(),
			SessionOptions: opts,
			WAL: wal.Options{
				Dir: *walDir, Sync: syncPolicy, Interval: syncEvery, SegmentBytes: *segBytes, FS: walFS,
			},
			CheckpointPath:  *ckptPath,
			CheckpointKeep:  *ckptKeep,
			CheckpointEvery: *ckptEvery,
			Collector:       stats.NewCollector(),
			DiskLowWater:    uint64(*diskLow),
		},
		Queue: serve.QueueConfig{
			Capacity: *queueCap, Policy: admitPolicy, MaxBatchUpdates: *maxMerge,
			MaxBytes: *queueBytes,
		},
		MaxRestarts: *maxRestarts,
		SLO:         *slo,
	}
	if *verbose {
		cfg.OnEvent = func(line string) { fmt.Println("serve:", line) }
	}

	if *role == "auto" {
		if cfg.Pipeline.CheckpointPath == "" {
			// Auto-reseed installs the shipped checkpoint file; without a
			// checkpoint path there is nowhere durable to put it and the
			// member would refuse snapshot offers.
			cfg.Pipeline.CheckpointPath = filepath.Join(*walDir, "ckpt.tds")
			fmt.Printf("auto: -ckpt not set; defaulting to %s so auto-reseed can install snapshots\n",
				cfg.Pipeline.CheckpointPath)
		}
		runAuto(ctx, cfg.Pipeline, *listen, *advertise, *peers, *quorum, *slo, *verbose)
		return
	}

	srv := serve.NewServer(cfg)
	start := time.Now()
	runErr := srv.Run(ctx, serve.NewSliceSource(w.Batches))
	wall := time.Since(start)

	if p := srv.Pipeline(); p != nil {
		col := srv.Collector()
		fmt.Printf("\nserved %d batches (%d durable sequence) in %s\n",
			col.Get(stats.CtrServeIngested), p.Seq(), wall.Round(time.Millisecond))
		fmt.Printf("  wal: appends=%d fsyncs=%d rotations=%d retired=%d replayed=%d torn-recovered=%d\n",
			col.Get(stats.CtrWALAppends), col.Get(stats.CtrWALFsyncs),
			col.Get(stats.CtrWALRotations), col.Get(stats.CtrWALRetained),
			col.Get(stats.CtrWALReplayed), col.Get(stats.CtrWALTornRecovered))
		fmt.Printf("  queue: admitted=%d coalesced=%d shed=%d\n",
			col.Get(stats.CtrServeAdmitted), col.Get(stats.CtrServeCoalesced),
			col.Get(stats.CtrServeShed))
		fmt.Printf("  supervisor: restarts=%d poisoned=%d checkpoints=%d rejected=%d\n",
			col.Get(stats.CtrServeRestarts), col.Get(stats.CtrServePoisoned),
			col.Get(stats.CtrServeCheckpoints), col.Get(stats.CtrServeRejected))
		printOverloadStats(col)
		s := p.Session()
		fmt.Printf("  session: %d vertices, %d edges\n", s.NumVertices(), s.NumEdges())
	}
	if ctx.Err() != nil {
		fmt.Println("drained after signal: durable state is on disk; restart to resume")
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// validateRole checks -role and the flags each role cannot run without,
// so a bad invocation fails before any graph is loaded or generated.
func validateRole(role, walDir, listen, peers string) error {
	switch role {
	case "solo", "auto", "client":
	case "primary", "follower":
		return fmt.Errorf("-role %s is retired: run every cluster member with -role auto (the members elect a leader themselves)", role)
	default:
		return fmt.Errorf("unknown role %q (solo|auto|client)", role)
	}
	if role == "client" {
		// A client holds no durable state of its own — the cluster does.
		if len(splitAddrs(peers)) == 0 {
			return errors.New("-peers is required for -role client: the cluster addresses to submit to")
		}
		return nil
	}
	if walDir == "" {
		return errors.New("-wal is required: the WAL directory is what makes the run durable")
	}
	if role == "auto" && listen == "" {
		return errors.New("-listen is required for -role auto")
	}
	return nil
}

// printOverloadStats is the one place the overload-ladder counters are
// rendered; solo and auto runs both end with it.
func printOverloadStats(col *stats.Collector) {
	fmt.Printf("  overload: slo-shed=%d slo-coalesced=%d deadline-expired=%d disk-rejects=%d readonly-entries=%d readonly-exits=%d\n",
		col.Get(stats.CtrQueueShedSLO), col.Get(stats.CtrQueueCoalescedSLO),
		col.Get(stats.CtrServeDeadlineExpired), col.Get(stats.CtrServeDiskPressure),
		col.Get(stats.CtrServeReadonlyEntries), col.Get(stats.CtrServeReadonlyExits))
}

func printReplStats(col *stats.Collector, term uint64) {
	fmt.Printf("  repl: term=%d shipped=%d acks=%d catchup=%d dup=%d lag=%d drops=%d quorum-failures=%d fence-rejections=%d diverged-rejections=%d failovers=%d\n",
		term,
		col.Get(stats.CtrReplShippedRecords), col.Get(stats.CtrReplAcks),
		col.Get(stats.CtrReplCatchupRecords), col.Get(stats.CtrReplDupFrames),
		col.Get(stats.CtrReplLag), col.Get(stats.CtrReplFollowerDrops),
		col.Get(stats.CtrReplQuorumFailures), col.Get(stats.CtrReplFenceRejects),
		col.Get(stats.CtrReplDivergedRejects), col.Get(stats.CtrReplFailovers))
	fmt.Printf("  reseed: offers=%d chunks=%d resumes=%d installs=%d aborts=%d\n",
		col.Get(stats.CtrReplReseedOffers), col.Get(stats.CtrReplReseedChunks),
		col.Get(stats.CtrReplReseedResumes), col.Get(stats.CtrReplReseedInstalls),
		col.Get(stats.CtrReplReseedAborts))
	fmt.Printf("  liveness: heartbeats-sent=%d heartbeats-missed=%d elections=%d demotions=%d redirects=%d\n",
		col.Get(stats.CtrReplHeartbeatsSent), col.Get(stats.CtrReplHeartbeatsMissed),
		col.Get(stats.CtrReplElections), col.Get(stats.CtrReplDemotions),
		col.Get(stats.CtrReplRedirects))
	printOverloadStats(col)
}

// runAuto runs one self-driving cluster member: a replica.Node whose
// role loop handles liveness, elections, demotion, and rejoin with no
// operator in the loop. The node boots as a follower under a grace
// lease; whichever member wins the first election serves client
// ingestion, and everyone else replicates from it. Start every member
// with the same -peers ring (minus itself) and point -role client at
// any of them.
func runAuto(ctx context.Context, pcfg serve.PipelineConfig, listen, advertise, peers string, quorum int, slo time.Duration, verbose bool) {
	if advertise == "" {
		advertise = listen
	}
	ncfg := replica.NodeConfig{
		Addr:     advertise,
		Peers:    splitAddrs(peers),
		Dial:     dialTCP,
		Pipeline: pcfg,
		Quorum:   quorum,
		SLO:      slo,
	}
	if verbose {
		ncfg.OnEvent = func(line string) { fmt.Println("node:", line) }
	}
	node, err := replica.NewNode(ncfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // shutdown closed the listener
			}
			go node.HandleConn(conn)
		}
	}()
	fmt.Printf("auto: %s recovered to seq %d at term %d, listening on %s, peers %v\n",
		advertise, node.Follower().Seq(), node.Term(), ln.Addr(), ncfg.Peers)
	runErr := node.Run(ctx)
	closeErr := node.Close()
	col := node.Follower().Pipeline().Collector()
	fmt.Printf("\nauto: drained as %s at seq %d\n", node.Role(), node.Follower().Seq())
	printReplStats(col, node.Term())
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fatal(runErr)
	}
	if closeErr != nil {
		fatal(closeErr)
	}
}

// runClient streams the workload into the cluster from outside it,
// chasing the leader through redirect hints when leadership moves.
// Acked batches stay exactly-once across failovers: every Welcome
// (and ack) names the durable prefix, and the client resubmits only
// past it.
func runClient(ctx context.Context, peers string, seed int64, deadline time.Duration, batches [][]graph.Update, verbose bool) {
	ccfg := replica.ClientConfig{Nodes: splitAddrs(peers), Dial: dialTCP, Seed: seed, BatchDeadline: deadline}
	if verbose {
		ccfg.OnEvent = func(line string) { fmt.Println("client:", line) }
	}
	cl, err := replica.NewClient(ccfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	runErr := cl.Run(ctx, batches)
	fmt.Printf("client: %d of %d batches quorum-durable in %s\n",
		cl.Acked(), len(batches), time.Since(start).Round(time.Millisecond))
	if runErr != nil {
		fatal(runErr)
	}
}

func splitAddrs(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func dialTCP(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdgraph-serve:", err)
	os.Exit(1)
}
