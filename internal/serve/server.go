package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// ServerConfig parameterises the serve loop around a pipeline config.
type ServerConfig struct {
	Pipeline PipelineConfig
	Queue    QueueConfig
	// MaxRestarts bounds supervisor-driven pipeline restarts before the
	// server gives up (default 3; negative means unlimited).
	MaxRestarts int
	// MaxBatchFailures poisons a batch — skips it — after this many
	// failed re-attempts of the same sequence (default 3).
	MaxBatchFailures int
	// OnEvent, when set, receives one human-readable line per notable
	// event (restarts, poisonings, shedding); nil discards them. It may
	// be called from the reader and serve goroutines concurrently.
	OnEvent func(string)
	// SLO is the ingest-latency objective (the -slo flag): when set, an
	// admission controller watches ingest latency and queue depth and
	// tightens the queue (coalesce harder, then shed) to defend it. 0
	// disables SLO-driven admission control.
	SLO time.Duration
	// Clock is the time source latency is measured on (default real).
	Clock Clock
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.MaxBatchFailures <= 0 {
		c.MaxBatchFailures = 3
	}
	if c.OnEvent == nil {
		c.OnEvent = func(string) {}
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.Queue.Capacity <= 0 {
		c.Queue.Capacity = 16
	}
	return c
}

// ErrTooManyRestarts reports a server that exhausted its restart
// budget: the pipeline kept failing in ways recovery could not mend.
var ErrTooManyRestarts = errors.New("serve: restart budget exhausted")

// Server runs the full ingestion service: a reader goroutine pulls
// batches from the source into the bounded queue, and the serve loop
// drains the queue into the durable pipeline under a supervisor that
// converts watchdog trips and recovered panics into bounded restarts
// from the newest checkpoint plus WAL replay. Cancel the context to
// begin a graceful drain: admission stops, queued batches finish, the
// WAL is flushed and a final checkpoint is cut.
type Server struct {
	cfg  ServerConfig
	col  *stats.Collector
	pipe *Pipeline
	slo  *SLOController
}

// NewServer builds a server; the pipeline is not opened until Run.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	cfg.Pipeline = cfg.Pipeline.withDefaults()
	s := &Server{cfg: cfg, col: cfg.Pipeline.Collector}
	if cfg.Queue.SLO != nil {
		s.slo = cfg.Queue.SLO
	} else {
		s.slo = NewSLOController(SLOConfig{Target: cfg.SLO})
		s.cfg.Queue.SLO = s.slo
	}
	return s
}

// Collector returns the server's counter set.
func (s *Server) Collector() *stats.Collector { return s.col }

// Pipeline returns the live pipeline after Run has started it (nil
// before). Intended for post-Run inspection in tests and CLIs.
func (s *Server) Pipeline() *Pipeline { return s.pipe }

// Run serves src until it ends (io.EOF), ctx is cancelled (graceful
// drain), or the restart budget is exhausted. It returns the first
// fatal error, or nil after a clean drain.
func (s *Server) Run(ctx context.Context, src Source) error {
	pipe, err := NewPipeline(s.cfg.Pipeline)
	if err != nil {
		return err
	}
	s.pipe = pipe

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	q := NewQueue(s.cfg.Queue)

	// Reader: source → queue. Owns queue closure; shedding is counted,
	// not fatal. A cancelled context stops admission so the serve loop
	// drains what is already queued. The collector is unsynchronized by
	// design, so the reader keeps private counts folded in after the
	// join below.
	var readErr error
	var admitted uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer q.Close()
		for {
			batch, err := src.Next(ctx)
			switch {
			case err == nil:
			case errors.Is(err, io.EOF), errors.Is(err, context.Canceled),
				errors.Is(err, context.DeadlineExceeded):
				return
			default:
				readErr = err
				return
			}
			if err := q.Put(batch); err != nil {
				if errors.Is(err, ErrShed) {
					s.cfg.OnEvent(fmt.Sprintf("shed batch of %d updates (queue full)", len(batch)))
					continue
				}
				return // queue closed under us: server is shutting down
			}
			admitted++
		}
	}()

	serveErr := s.serveLoop(q)

	// A fatal serve error leaves the reader running; unblock it so the
	// drain below cannot deadlock on a full queue.
	cancel()
	q.Close()
	wg.Wait()
	s.col.Add(stats.CtrServeAdmitted, admitted)
	s.foldQueueStats(q)
	if rs, ok := src.(*RetrySource); ok {
		s.col.Set(stats.CtrServeRetries, rs.Retries())
		s.col.Set(stats.CtrServeBreakerOpen, rs.Breaker().Opens())
	}

	closeErr := pipe.Close()
	switch {
	case serveErr != nil:
		return serveErr
	case readErr != nil:
		return fmt.Errorf("serve: source failed: %w", readErr)
	default:
		return closeErr
	}
}

// serveLoop drains the queue into the pipeline, supervising failures.
// Each batch is re-attempted while the failure is non-durable (the WAL
// file never saw its record) up to MaxBatchFailures, then poisoned.
// Failures once the record reached the log — a failed fsync barrier
// ("wal-sync"), engine panics surfacing through checkpoint writes,
// watchdog trips — trigger a pipeline restart that recovers from the
// newest checkpoint and WAL replay; the batch itself is already in the
// log, so it is never re-sent.
func (s *Server) serveLoop(q *Queue) error {
	restarts := 0
	for {
		batch, err := q.Get()
		if err != nil {
			return nil // closed and drained
		}

		failures := 0
	attempt:
		start := s.cfg.Clock.Now()
		ierr := s.pipe.Ingest(batch)
		// Feed the admission controller every attempt: slow or failing
		// ingest is exactly the signal that should tighten the queue.
		s.slo.Observe(s.cfg.Clock.Now().Sub(start), q.Len(), s.cfg.Queue.Capacity)
		if ierr == nil {
			continue
		}

		var ie *IngestError
		durable := errors.As(ierr, &ie) && ie.Durable()
		if !durable {
			if errors.Is(ierr, ErrDiskPressure) {
				// Read-only under disk pressure: retrying immediately hits
				// the same wall and poisoning would misreport a healthy
				// batch. Shed it — the pipeline already counted the
				// refusal — and keep draining so heartbeats/reads flow.
				s.cfg.OnEvent(fmt.Sprintf("shed batch of %d updates (disk pressure)", len(batch)))
				continue
			}
			// The batch never reached the log: re-attempt it against the
			// same pipeline, then poison.
			failures++
			if failures < s.cfg.MaxBatchFailures {
				goto attempt
			}
			s.col.Inc(stats.CtrServePoisoned)
			s.cfg.OnEvent(fmt.Sprintf("poisoned batch after %d failures: %v", failures, ierr))
			continue
		}

		// Durable failure: the state machine may be wedged (watchdog
		// trip, panic during checkpointing). Restart from durable state.
		if s.cfg.MaxRestarts >= 0 && restarts >= s.cfg.MaxRestarts {
			return fmt.Errorf("%w (%d restarts): %w", ErrTooManyRestarts, restarts, ierr)
		}
		restarts++
		s.col.Inc(stats.CtrServeRestarts)
		s.cfg.OnEvent(fmt.Sprintf("restart %d: %s", restarts, describeFailure(ierr)))
		if err := s.restartPipeline(); err != nil {
			return fmt.Errorf("serve: restart %d failed: %w", restarts, err)
		}
	}
}

// restartPipeline closes the wedged pipeline (best effort — its state
// is suspect) and reopens it from the newest checkpoint + WAL replay.
func (s *Server) restartPipeline() error {
	_ = s.pipe.log.Close() // skip the final checkpoint: state is suspect
	s.pipe.sess.Close()    // release the wedged session's worker pool
	pipe, err := NewPipeline(s.cfg.Pipeline)
	if err != nil {
		return err
	}
	s.pipe = pipe
	return nil
}

// describeFailure names the engine-level cause for the event log.
func describeFailure(err error) string {
	var we *sim.WatchdogError
	if errors.As(err, &we) {
		return fmt.Sprintf("watchdog trip (%v)", we)
	}
	var pe *tdgraph.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("recovered panic (%v)", pe)
	}
	return err.Error()
}

func (s *Server) foldQueueStats(q *Queue) {
	qs := q.Stats()
	s.col.Set(stats.CtrServeShed, qs.Shed)
	s.col.Set(stats.CtrServeCoalesced, qs.Coalesced)
	s.col.Set(stats.CtrQueueShedSLO, qs.ShedSLO)
	s.col.Set(stats.CtrQueueCoalescedSLO, qs.CoalescedSLO)
}
