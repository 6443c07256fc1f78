package server

import (
	"context"
	"errors"
	"runtime"
	"time"

	"vulfi/internal/campaign"
)

// runner is one scheduler goroutine: it pulls jobs off the queue and
// runs them to completion (or interruption) on the campaign worker pool.
// The number of runners bounds how many studies execute concurrently;
// each study parallelizes internally, so the default is 1.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		job, ok := s.q.Pop()
		if !ok {
			return
		}
		s.mx.queueDepth.Set(int64(s.q.Len()))
		if s.baseCtx.Err() != nil {
			// Draining: leave the job queued in its journal (no terminal
			// record), so the next daemon resumes it.
			s.logf("drain: leaving job %s for restart", job.ID)
			continue
		}
		if job.Spec.Shards > 1 {
			s.runShardedJob(job)
		} else {
			s.runJob(job)
		}
	}
}

// runJob executes one job under a cancellable context, checkpointing
// every experiment through the job journal.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !job.setRunning(cancel) {
		return // cancelled while queued
	}
	s.mx.running.Add(1)
	defer s.mx.running.Add(-1)
	start := time.Now()

	cfg, err := job.Spec.Config()
	if err != nil {
		// Validated at submission; only a spec journaled by a newer
		// daemon version can fail here.
		s.mx.failed.Inc()
		job.finish(StateFailed, err.Error(), nil)
		return
	}
	cfg.Metrics = job.reg
	cfg.OnResult = job.onResult

	// Stall watchdog: the pool reports starts, finishes and interpreter
	// heartbeats; a ticker flags stragglers. The watchdog wrap sits
	// INSIDE the test throttle below, so an injected inter-experiment
	// sleep never reads as a stalled experiment.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	wd := newWatchdog(job.Spec, workers, s.opts)
	job.setWatchdog(wd)
	cfg.OnStart = wd.onStart
	if inject := s.opts.stallInject; inject != nil {
		cfg.OnStart = func(index, worker int) {
			wd.onStart(index, worker)
			inject(index)
		}
	}
	cfg.Heartbeat = wd.heartbeat
	{
		inner := cfg.OnResult
		cfg.OnResult = func(i int, seed int64, r *campaign.ExperimentResult) {
			var site string
			if r.DynSites > 0 {
				site = r.Record.String()
			}
			wd.onFinish(i, r.Wall, site)
			inner(i, seed, r)
		}
	}
	tick := s.opts.WatchdogTick
	if tick <= 0 {
		tick = defaultWatchdogTick
	}
	wdDone := make(chan struct{})
	defer close(wdDone)
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-wdDone:
				return
			case <-t.C:
				for _, r := range wd.check() {
					job.reg.Counter("watchdog.stalls").Inc()
					job.broadcast("stall", r)
					s.logf("watchdog: job %s experiment %d stalled on worker %d (%.1fs > %.1fs, alive=%v)",
						job.ID, r.Index, r.Worker,
						float64(r.ElapsedNS)/1e9, float64(r.ThresholdNS)/1e9,
						r.WorkerAlive)
				}
			}
		}
	}()

	if d := s.opts.expThrottle; d > 0 {
		inner := cfg.OnResult
		cfg.OnResult = func(i int, seed int64, r *campaign.ExperimentResult) {
			inner(i, seed, r)
			time.Sleep(d)
		}
	}
	cfg.Completed = job.completedSnapshot()

	sr, err := campaign.RunStudy(ctx, cfg)
	s.mx.jobWall.Since(start)
	switch {
	case err == nil:
		s.mx.completed.Inc()
		// Shard jobs running on a worker are fragments of someone else's
		// study; only whole studies belong in the history trend store.
		// The entry goes in before the job turns done, so a client that
		// sees it done finds the entry.
		if job.Spec.ShardEnd == 0 {
			s.recordHistory(job, sr)
		}
		job.finish(StateDone, "", marshalStudy(sr))
	case errors.Is(err, context.Canceled) && job.cancelRequested():
		s.mx.cancelled.Inc()
		job.finish(StateCancelled, "", nil)
	case s.baseCtx.Err() != nil:
		// Daemon drain: in-flight experiments finished and were
		// journaled; mark the interruption (non-terminal) and leave the
		// job for the next daemon.
		job.finish(StateInterrupted, "", nil)
		s.logf("drain: job %s interrupted at %d/%d experiments",
			job.ID, job.Status().Done, job.Status().Total)
	default:
		s.mx.failed.Inc()
		job.finish(StateFailed, err.Error(), nil)
	}
}
