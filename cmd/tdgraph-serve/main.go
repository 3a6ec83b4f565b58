// Command tdgraph-serve runs the durable streaming ingestion service:
// a workload (or SNAP edge-list file) is streamed into a
// write-ahead-logged session on the incremental native engine with
// rotating checkpoints, so the run survives kill -9 at any instant.
//
// Every serving role runs the same member, a replica.Node, and every
// batch reaches it through the same client, replica.Client. -role solo
// (the default) is a one-member cluster in one process: a node with no
// peers on a loopback port, which elects itself, and a client streaming
// the workload into it. Restart with the same -wal and -ckpt paths and
// it resumes from the newest checkpoint plus WAL replay, losing nothing
// past the last fsync barrier; the client skips every batch the node
// reports durable, so a rerun is exactly-once:
//
//	tdgraph-serve -wal /var/lib/tdgraph/wal -ckpt /var/lib/tdgraph/ckpt.tds \
//	              -dataset LJ -scale 0.25 -algo sssp -batches 16
//	tdgraph-serve -wal ./wal -walsync interval:8 -slo 50ms
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
// -role is exactly solo | auto | client.
//
// SIGINT/SIGTERM begin a graceful drain: the client stops submitting,
// the WAL is flushed and a final checkpoint generation is cut.
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

		slo      = flag.Duration("slo", 0, "ingest-latency objective; enables SLO-driven admission control (0 = off)")
		diskLow  = flag.Int64("disk-low-water", 0, "free-space floor in bytes under which ingest degrades to read-only (0 = ENOSPC-only degradation)")
		deadline = flag.Duration("deadline", 0, "per-batch deadline the client propagates to the leader (0 = none)")

		faults   = flag.String("faults", "", "seeded disk fault spec for the WAL, checkpoints and term file over wal-torn fsync-err disk-full enospc low-space, e.g. 'wal-torn:4096,fsync-err:2,disk-full:1048576'")
		validate = flag.String("validate", "", "ingestion validation policy: none|reject|clamp|quarantine")
		verbose  = flag.Bool("v", false, "log node and client events (elections, redirects, retries)")

		role      = flag.String("role", "solo", "how to run: solo (one-member cluster and its client, in one process) | auto (self-driving cluster member) | client (submit to a cluster)")
		peers     = flag.String("peers", "", "auto: the other members' addresses; client: cluster addresses to try (comma-separated)")
		listen    = flag.String("listen", "", "auto: address to accept cluster connections on (required)")
		advertise = flag.String("advertise", "", "auto: address peers dial this node by (default -listen)")
		quorum    = flag.Int("quorum", 0, "auto: required acks counting the leader itself (0 = majority of cluster)")
	)
	flag.Parse()

	if err := validateRole(*role, *walDir, *listen, *peers); err != nil {
		fatal(err)
	}
	walFS := wal.FS(wal.OSFS{})
	if *faults != "" {
		inj, err := fault.Parse(*faults, *seed, fault.DiskClasses...)
		if err != nil {
			fatal(err)
		}
		walFS = inj.FS(walFS)
		fmt.Printf("fault injection armed on the member's filesystem (WAL, checkpoints, term file): %s\n", *faults)
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
		if err := runClient(ctx, splitAddrs(*peers), *seed, *deadline, w.Batches, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	opts := tdgraph.SessionOptions{Validation: pol, MaxVertices: nv}
	ncfg := replica.NodeConfig{
		Addr:  *advertise,
		Peers: splitAddrs(*peers),
		Dial:  dialTCP,
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
		Quorum: *quorum,
		SLO:    *slo,
	}
	if *verbose {
		ncfg.OnEvent = func(line string) { fmt.Println("node:", line) }
	}

	var runErr error
	if *role == "solo" {
		runErr = runSolo(ctx, ncfg, *seed, *deadline, w.Batches, *verbose)
	} else {
		if ncfg.Addr == "" {
			ncfg.Addr = *listen
		}
		if ncfg.Pipeline.CheckpointPath == "" {
			// Auto-reseed installs the shipped checkpoint file; without a
			// checkpoint path there is nowhere durable to put it and the
			// member would refuse snapshot offers.
			ncfg.Pipeline.CheckpointPath = filepath.Join(*walDir, "ckpt.tds")
			fmt.Printf("auto: -ckpt not set; defaulting to %s so auto-reseed can install snapshots\n",
				ncfg.Pipeline.CheckpointPath)
		}
		runErr = runNode(ctx, "auto", ncfg, *listen, nil)
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

// printNodeStats renders a drained member's counters.
func printNodeStats(col *stats.Collector, term uint64) {
	fmt.Printf("  wal: appends=%d fsyncs=%d rotations=%d retired=%d replayed=%d torn-recovered=%d checkpoints=%d rejected=%d\n",
		col.Get(stats.CtrWALAppends), col.Get(stats.CtrWALFsyncs),
		col.Get(stats.CtrWALRotations), col.Get(stats.CtrWALRetained),
		col.Get(stats.CtrWALReplayed), col.Get(stats.CtrWALTornRecovered),
		col.Get(stats.CtrServeCheckpoints), col.Get(stats.CtrServeRejected))
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
	fmt.Printf("  overload: slo-shed=%d deadline-expired=%d disk-rejects=%d readonly-entries=%d readonly-exits=%d\n",
		col.Get(stats.CtrQueueShedSLO),
		col.Get(stats.CtrServeDeadlineExpired), col.Get(stats.CtrServeDiskPressure),
		col.Get(stats.CtrServeReadonlyEntries), col.Get(stats.CtrServeReadonlyExits))
}

// runSolo serves the workload on a one-member cluster: runNode with no
// peers on a loopback port, where the member elects itself, and
// runClient pointed at it. When the client returns, the node is
// cancelled and drained. A signal is a graceful drain, not an error:
// everything acked is durable, and a rerun over the same -wal resumes
// past it.
func runSolo(ctx context.Context, ncfg replica.NodeConfig, seed int64, deadline time.Duration, batches [][]graph.Update, verbose bool) error {
	ncfg.Addr, ncfg.Peers, ncfg.Quorum = "", nil, 0 // one member, at the loopback port it binds
	nodeCtx, stop := context.WithCancel(ctx)
	defer stop()
	bound := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- runNode(nodeCtx, "solo", ncfg, "127.0.0.1:0", func(addr string) { bound <- addr }) }()
	var clientErr error
	select {
	case addr := <-bound:
		clientErr = runClient(ctx, []string{addr}, seed, deadline, batches, verbose)
	case err := <-served:
		return err
	}
	stop()
	if ctx.Err() != nil && errors.Is(clientErr, context.Canceled) {
		fmt.Println("drained after signal: durable state is on disk; restart to resume")
		clientErr = nil
	}
	return errors.Join(clientErr, <-served)
}

// runNode runs one member until ctx ends: a replica.Node whose role
// loop handles liveness, elections, demotion, and rejoin with no
// operator in the loop. The node boots as a candidate (a live leader
// its probe finds makes it defer); a cold cluster elects as soon as one
// member's probe round hears every member, and everyone else replicates
// from the winner — a member with no peers elects itself at once. The
// listener is bound before recovery runs, so a peer's probe waits in
// the accept backlog while this member recovers instead of being
// refused (and a port already in use fails before recovery). An empty
// ncfg.Addr advertises the bound address; ready, if set, is handed it
// once the node serves. Start every auto member with the same -peers
// ring (minus itself) and point -role client at any of them.
func runNode(ctx context.Context, role string, ncfg replica.NodeConfig, listen string, ready func(addr string)) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	if ncfg.Addr == "" {
		ncfg.Addr = ln.Addr().String()
	}
	node, err := replica.NewNode(ncfg)
	if err != nil {
		return err
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
	fmt.Printf("%s: %s recovered to seq %d at term %d, listening on %s, peers %v\n",
		role, ncfg.Addr, node.Follower().Seq(), node.Term(), ln.Addr(), ncfg.Peers)
	if ready != nil {
		ready(ncfg.Addr)
	}
	runErr := node.Run(ctx)
	closeErr := node.Close()
	pipe := node.Follower().Pipeline()
	fmt.Printf("\n%s: drained as %s at seq %d\n", role, node.Role(), node.Follower().Seq())
	printNodeStats(pipe.Collector(), node.Term())
	s := pipe.Session()
	fmt.Printf("  session: %d vertices, %d edges\n", s.NumVertices(), s.NumEdges())
	if errors.Is(runErr, context.Canceled) {
		runErr = nil
	}
	return errors.Join(runErr, closeErr)
}

// runClient streams the workload into the cluster at addrs, chasing
// the leader through redirect hints when leadership moves. Acked
// batches stay exactly-once across failovers and reruns: every Welcome
// (and ack) names the durable prefix, and the client submits only past
// it.
func runClient(ctx context.Context, addrs []string, seed int64, deadline time.Duration, batches [][]graph.Update, verbose bool) error {
	ccfg := replica.ClientConfig{Nodes: addrs, Dial: dialTCP, Seed: seed, BatchDeadline: deadline}
	if verbose {
		ccfg.OnEvent = func(line string) { fmt.Println("client:", line) }
	}
	cl, err := replica.NewClient(ccfg)
	if err != nil {
		return err
	}
	start := time.Now()
	runErr := cl.Run(ctx, batches)
	fmt.Printf("client: %d of %d batches quorum-durable in %s\n",
		cl.Acked(), len(batches), time.Since(start).Round(time.Millisecond))
	return runErr
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
