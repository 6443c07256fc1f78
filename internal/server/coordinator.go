package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/campaign"
	"vulfi/internal/obs"
	"vulfi/internal/profile"
)

// Coordinator mode: a job submitted with "shards": N > 1 is not run on
// the local campaign pool. Instead the deterministic experiment-index
// schedule is split into contiguous range shards, each shard is
// dispatched to a registered worker vulfid as a normal job whose spec
// carries shard_start/shard_end, and the worker's checkpointed
// (index, seed, result) triples are harvested over
// GET /v1/jobs/{id}/experiments into the coordinator's own journal as
// they appear. A shard is nothing but a range filter over the same
// schedule every single-node run uses, and a harvested triple is
// byte-identical to a locally executed one — so when every index has a
// triple, one merge-only RunStudy (fully populated Completed map, zero
// fresh executions) reproduces the single-node aggregation exactly:
// campaign grouping, WallMin/WallMax folding, statistics, atlas site
// tallies, history entry.
//
// Failure handling falls out of the same journal the drain/resume path
// uses: a worker that dies mid-shard leaves its harvested prefix in
// the coordinator's journal, the unharvested remainder is re-planned
// as fresh ranges and handed to another worker (or run locally when
// the fleet is empty), and a restarted coordinator resumes the whole
// sharded job from its journal like any other interrupted job.

const (
	defaultWorkerTTL    = 15 * time.Second
	defaultHarvestEvery = 2 * time.Second
	// workerMisses is how many consecutive failed polls (status or
	// harvest) declare a worker unreachable and trigger reassignment.
	workerMisses = 3
)

// shardRange is a half-open range [lo, hi) of experiment indices.
type shardRange struct{ lo, hi int }

func (r shardRange) size() int { return r.hi - r.lo }

// missingWithin returns the maximal contiguous runs of indices inside
// within that have no checkpointed result yet.
func (j *Job) missingWithin(within shardRange) []shardRange {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []shardRange
	run := -1
	for i := within.lo; i < within.hi; i++ {
		if j.completed[i] != nil {
			if run >= 0 {
				out = append(out, shardRange{run, i})
				run = -1
			}
			continue
		}
		if run < 0 {
			run = i
		}
	}
	if run >= 0 {
		out = append(out, shardRange{run, within.hi})
	}
	return out
}

// planShards splits the missing runs into about n similarly sized
// ranges: a fresh study yields n contiguous slices of [0, total); a
// resumed job's scattered gaps keep their natural run boundaries, with
// the largest runs split until at least n shards exist (or nothing is
// left to split). Sorted by start index for deterministic dispatch.
func planShards(runs []shardRange, n int) []shardRange {
	out := append([]shardRange(nil), runs...)
	for len(out) > 0 && len(out) < n {
		li := 0
		for i, r := range out {
			if r.size() > out[li].size() {
				li = i
			}
		}
		if out[li].size() < 2 {
			break
		}
		r := out[li]
		mid := r.lo + r.size()/2
		out[li] = shardRange{r.lo, mid}
		out = append(out, shardRange{mid, r.hi})
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].lo < out[k-1].lo; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

func (s *Server) workerTTL() time.Duration {
	if s.opts.WorkerTTL > 0 {
		return s.opts.WorkerTTL
	}
	return defaultWorkerTTL
}

func (s *Server) harvestEvery() time.Duration {
	if s.opts.HarvestEvery > 0 {
		return s.opts.HarvestEvery
	}
	return defaultHarvestEvery
}

// coordObs records the coordinator's own side of a timeline-enabled
// sharded job — the dispatch/harvest/merge spans that become lane 0
// ("coordinator") of the fleet timeline. Its trace identity is exactly
// the one a single-node run of the spec would derive (or the one the
// submitting client sent via traceparent), and each shard's dispatched
// spec carries a traceparent naming that shard's coordinator span, so
// the worker's study root nests under it — MergeRemote's causality
// seam, one level deeper. nil when the job is untraced; all methods are
// nil-safe.
type coordObs struct {
	col   *obs.Collector
	tid   string
	seed  int64
	epoch time.Time
	attrs map[string]string
}

func newCoordObs(job *Job, epoch time.Time) *coordObs {
	if !job.Spec.Timeline {
		return nil
	}
	cfg, err := job.Spec.Config()
	if err != nil {
		return nil // Submit already validated; unreachable in practice
	}
	var tid, parent string
	if job.Spec.TraceParent != "" {
		tid, parent, _ = obs.ParseTraceparent(job.Spec.TraceParent)
	}
	if tid == "" {
		tid = obs.DeriveTraceID(fmt.Sprintf("%s seed=%d", cfg.String(), cfg.Seed))
	}
	root := obs.DeriveSpanID(tid, "study", cfg.Seed)
	backend := cfg.Backend
	if backend == "" {
		backend = "tree"
	}
	return &coordObs{
		col:   obs.NewCollector(tid, root, parent, 0, epoch),
		tid:   tid,
		seed:  cfg.Seed,
		epoch: epoch,
		attrs: map[string]string{
			"benchmark":   cfg.Benchmark.Name,
			"isa":         cfg.ISA.Name,
			"category":    cfg.Category.String(),
			"backend":     backend,
			"seed":        strconv.FormatInt(cfg.Seed, 10),
			"experiments": strconv.Itoa(job.Spec.ScheduleTotal()),
			"shards":      strconv.Itoa(job.Spec.Shards),
		},
	}
}

// shardSpanID derives the deterministic coordinator span ID for one
// shard range; reassigned attempts of the same range share it, exactly
// like a golden cache refill repeats its span identity.
func (co *coordObs) shardSpanID(r shardRange) string {
	return obs.DeriveSpanID(co.tid, fmt.Sprintf("shard[%d,%d)", r.lo, r.hi), co.seed)
}

// traceparent renders the traceparent the dispatched shard spec carries
// ("" when the job is untraced).
func (co *coordObs) traceparent(r shardRange) string {
	if co == nil {
		return ""
	}
	return obs.FormatTraceparent(co.tid, co.shardSpanID(r))
}

// shardSpan records one shard attempt's dispatch-to-completion window
// on the coordinator lane.
func (co *coordObs) shardSpan(r shardRange, worker, state string, start time.Time, dur time.Duration) {
	if co == nil {
		return
	}
	co.col.Ctl(fmt.Sprintf("shard[%d,%d)", r.lo, r.hi), co.shardSpanID(r),
		co.col.Root(), start, dur,
		map[string]string{
			"lo": strconv.Itoa(r.lo), "hi": strconv.Itoa(r.hi),
			"worker": worker, "state": state,
		})
}

// span records a named singleton coordinator span (e.g. "merge").
func (co *coordObs) span(name string, start time.Time, dur time.Duration) {
	if co == nil {
		return
	}
	co.col.Ctl(name, obs.DeriveSpanID(co.tid, name, co.seed), co.col.Root(),
		start, dur, nil)
}

// finish closes the coordinator's root study span and returns its
// timeline, ready for obs.MergeShards.
func (co *coordObs) finish(wall time.Duration) *obs.Timeline {
	co.col.Ctl("study", co.col.Root(), co.col.Parent(), co.epoch, wall, co.attrs)
	return co.col.Finish(wall)
}

// runShardedJob is the coordinator's counterpart of runJob: it drives
// one sharded job from planning through dispatch, harvest,
// reassignment and the final merge.
func (s *Server) runShardedJob(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !job.setRunning(cancel) {
		return // cancelled while queued
	}
	s.mx.running.Add(1)
	defer s.mx.running.Add(-1)
	start := time.Now()

	full := shardRange{0, job.Spec.ScheduleTotal()}
	pending := planShards(job.missingWithin(full), job.Spec.Shards)
	s.logf("coordinator: job %s planned %d shards over %d missing experiments",
		job.ID, len(pending), job.Spec.Total()-job.Status().Done)
	co := newCoordObs(job, start)

	type shardDone struct {
		r      shardRange
		worker string
		err    error
	}
	results := make(chan shardDone)
	inflight := 0
	failures := 0
	// A sharded job that keeps failing must converge on an answer, not
	// spin: after this many shard failures the job fails for good. The
	// local fallback makes genuine progress in the meantime, so the cap
	// only triggers on systematically failing specs or fleets.
	maxFailures := 2*len(pending) + 8
	var lastErr error

	launch := func(r shardRange, w *workerEntry) {
		inflight++
		name := "local"
		if w != nil {
			// Display name throughout: shard/fleet events, harvest
			// checkpoints and the coordinator's shard spans must agree on
			// the worker's identity or /v1/fleet double-counts it.
			name = s.fleet.name(w)
		}
		job.broadcast("shard", api.ShardEvent{
			Lo: r.lo, Hi: r.hi, Worker: name, State: "assigned",
			Done: job.Status().Done, Total: job.Status().Total,
		})
		tp := co.traceparent(r)
		go func() {
			shStart := time.Now()
			var err error
			if w != nil {
				err = s.runShardOnWorker(ctx, job, w, r, tp)
				s.fleet.release(w, err != nil && ctx.Err() == nil)
			} else {
				err = s.runShardLocally(ctx, job, r, tp)
			}
			state := "done"
			if err != nil {
				state = "failed"
			}
			co.shardSpan(r, name, state, shStart, time.Since(shStart))
			results <- shardDone{r: r, worker: name, err: err}
		}()
	}

	for (len(pending) > 0 || inflight > 0) && ctx.Err() == nil && failures <= maxFailures {
		handed := false
		for len(pending) > 0 {
			w := s.fleet.acquire()
			if w == nil {
				break
			}
			r := pending[0]
			pending = pending[1:]
			launch(r, w)
			handed = true
		}
		if len(pending) > 0 && inflight == 0 {
			// No reachable worker and nothing in flight: run the next shard
			// on the coordinator itself, so a coordinator with no fleet
			// degrades to a single node instead of stalling.
			r := pending[0]
			pending = pending[1:]
			launch(r, nil)
			handed = true
		}
		if handed {
			continue
		}
		select {
		case d := <-results:
			inflight--
			switch {
			case d.err == nil:
				job.broadcast("shard", api.ShardEvent{
					Lo: d.r.lo, Hi: d.r.hi, Worker: d.worker, State: "done",
					Done: job.Status().Done, Total: job.Status().Total,
				})
			case ctx.Err() != nil:
				// Cancelled or draining; the terminal switch below decides.
			default:
				failures++
				lastErr = d.err
				left := job.missingWithin(d.r)
				s.logf("coordinator: job %s shard [%d,%d) on %s failed (%v); re-planning %d ranges",
					job.ID, d.r.lo, d.r.hi, d.worker, d.err, len(left))
				job.broadcast("shard", api.ShardEvent{
					Lo: d.r.lo, Hi: d.r.hi, Worker: d.worker, State: "failed",
					Done: job.Status().Done, Total: job.Status().Total,
				})
				// Fleet incidents become "fleet" SSE events, telemetry
				// counters and journaled checkpoints — one signal, three
				// consumers (live watchers, scrapers, /v1/fleet across
				// restarts).
				if d.worker != "local" {
					s.reg.Counter("coordinator.workers_lost").Inc()
					job.noteHarvest(HarvestCheckpoint{Worker: d.worker, Event: "worker_lost"})
					job.broadcast("fleet", api.FleetEvent{
						Type: "worker_lost", Worker: d.worker,
						Lo: d.r.lo, Hi: d.r.hi, Error: d.err.Error(),
					})
				}
				if len(left) > 0 {
					s.reg.Counter("coordinator.reassigned").Inc()
					job.noteHarvest(HarvestCheckpoint{Worker: d.worker, Event: "reassigned"})
					job.broadcast("fleet", api.FleetEvent{
						Type: "reassigned", Worker: d.worker,
						Lo: left[0].lo, Hi: left[len(left)-1].hi,
					})
				}
				pending = append(pending, left...)
			}
		case <-time.After(s.harvestEvery()):
			// Idle poll: a worker may have registered or come back alive
			// since the last hand-out attempt.
		case <-ctx.Done():
		}
	}
	// Let in-flight shard runners unwind (they observe ctx promptly);
	// their results still dedupe through addHarvested.
	for inflight > 0 {
		<-results
		inflight--
	}

	s.mx.jobWall.Since(start)
	missing := job.missingWithin(full)
	switch {
	case ctx.Err() == nil && len(missing) == 0:
		sr, err := s.mergeShards(ctx, job, co)
		if err != nil {
			s.mx.failed.Inc()
			job.finish(StateFailed, fmt.Sprintf("merge: %v", err), nil)
			return
		}
		s.mx.completed.Inc()
		s.recordHistory(job, sr) // before done, as in runJob
		job.finish(StateDone, "", marshalStudy(sr))
	case job.cancelRequested():
		s.mx.cancelled.Inc()
		job.finish(StateCancelled, "", nil)
	case s.baseCtx.Err() != nil:
		// Coordinator drain: harvested triples are journaled; the next
		// daemon resumes the job and re-plans only the missing ranges.
		job.finish(StateInterrupted, "", nil)
		s.logf("drain: job %s interrupted at %d/%d experiments",
			job.ID, job.Status().Done, job.Status().Total)
	default:
		s.mx.failed.Inc()
		job.finish(StateFailed, fmt.Sprintf("sharding failed after %d shard failures: %v",
			failures, lastErr), nil)
	}
}

// shardSpec derives the spec dispatched to a worker for one range:
// same study knobs, the shard range set, and the coordinator-side
// concerns stripped — the worker must not recurse into sharding, and
// atlas attribution is a merge-time output (computing partial tallies
// on workers would waste golden re-runs on data the merge recomputes).
// tp, when non-empty, is the coordinator's per-shard traceparent: the
// shard's study root then nests under the coordinator's span for that
// range, which is what keeps the merged fleet trace joinable by span
// ID.
func shardSpec(spec Spec, r shardRange, tp string) Spec {
	spec.Shards = 0
	spec.ShardStart, spec.ShardEnd = r.lo, r.hi
	spec.Atlas = false
	if tp != "" {
		spec.TraceParent = tp
	}
	return spec
}

// runShardOnWorker submits one shard to a worker and polls it to
// completion, harvesting checkpointed triples into the coordinator's
// journal every HarvestEvery. A worker that fails workerMisses
// consecutive polls is declared unreachable (the shard's unharvested
// remainder gets reassigned); a worker that drains mid-shard keeps the
// job journaled, so the poll loop just keeps watching until its
// restarted daemon resumes and finishes the shard job.
func (s *Server) runShardOnWorker(ctx context.Context, job *Job, w *workerEntry, r shardRange, tp string) error {
	st, err := w.cl.Submit(ctx, shardSpec(job.Spec, r, tp))
	if err != nil {
		return fmt.Errorf("submit shard: %w", err)
	}
	shardID := st.ID
	worker := s.fleet.name(w)
	done := false
	defer func() {
		if done {
			return
		}
		// Reassignment or coordinator shutdown: don't leave an orphaned
		// shard burning the worker (background context — ctx is dead).
		cctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_, _ = w.cl.Cancel(cctx, shardID)
	}()

	lastHarvest := time.Now()
	harvest := func() error {
		recs, err := w.cl.Experiments(ctx, shardID, r.lo, r.hi)
		if err != nil {
			return err
		}
		fresh := 0
		for _, rec := range recs {
			if job.addHarvested(rec.Index, rec.Seed, rec.Result) {
				fresh++
			}
		}
		if fresh > 0 {
			now := time.Now()
			job.noteHarvest(HarvestCheckpoint{
				Worker: worker, N: fresh,
				NS: now.Sub(lastHarvest).Nanoseconds(), At: now,
			})
			lastHarvest = now
		}
		return nil
	}

	tick := time.NewTicker(s.harvestEvery())
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		st, err := w.cl.Status(ctx, shardID)
		if err == nil {
			err = harvest()
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if misses++; misses >= workerMisses {
				return fmt.Errorf("worker %s unreachable: %w", w.URL, err)
			}
			continue
		}
		misses = 0
		switch st.State {
		case StateDone:
			if left := job.missingWithin(r); len(left) > 0 {
				return fmt.Errorf("worker %s finished shard [%d,%d) with %d ranges unharvested",
					w.URL, r.lo, r.hi, len(left))
			}
			// Observability harvest rides the same misses budget as the
			// triple polls: a worker that vanishes between its last triple
			// and this fetch is still "unreachable", and the remainder (the
			// obs, not any triples) is simply lost — the merge tolerates
			// missing shard obs.
			if o, ferr := s.harvestShardObs(ctx, job, w, worker, shardID); ferr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if misses++; misses >= workerMisses {
					return fmt.Errorf("worker %s unreachable harvesting observability: %w", w.URL, ferr)
				}
				continue
			} else if o != nil {
				job.addShardObs(*o)
			}
			done = true
			return nil
		case StateFailed:
			return fmt.Errorf("worker %s shard [%d,%d): %s", w.URL, r.lo, r.hi, st.Error)
		case StateCancelled:
			return fmt.Errorf("worker %s shard [%d,%d) was cancelled on the worker",
				w.URL, r.lo, r.hi)
		}
		// queued, running or interrupted (worker draining — its restart
		// resumes the shard from its own journal): keep polling.
	}
}

// harvestShardObs pulls a finished shard's timeline and profile from
// its worker (whichever the job asked for). Returns (nil, nil) when the
// job wants neither.
func (s *Server) harvestShardObs(ctx context.Context, job *Job, w *workerEntry, worker, shardID string) (*ShardObs, error) {
	if !job.Spec.Timeline && !job.Spec.Profile {
		return nil, nil
	}
	o := ShardObs{Worker: worker}
	if job.Spec.Timeline {
		tl, err := w.cl.Timeline(ctx, shardID)
		if err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}
		o.Timeline = tl
	}
	if job.Spec.Profile {
		raw, err := w.cl.Profile(ctx, shardID)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if len(raw) > 0 {
			var hp profile.Profile
			if err := json.Unmarshal(raw, &hp); err != nil {
				return nil, fmt.Errorf("profile: %w", err)
			}
			o.Profile = &hp
		}
	}
	return &o, nil
}

// runShardLocally executes one shard on the coordinator's own campaign
// pool — the no-fleet fallback. Results flow through addHarvested like
// remote triples, so journal, counters and SSE progress are uniform,
// and the shard's observability lands in addShardObs exactly as a
// harvested worker's would.
func (s *Server) runShardLocally(ctx context.Context, job *Job, r shardRange, tp string) error {
	spec := shardSpec(job.Spec, r, tp)
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	cfg.Metrics = job.reg
	var fresh int64
	cfg.OnResult = func(i int, seed int64, res *campaign.ExperimentResult) {
		if job.addHarvested(i, seed, res) {
			atomic.AddInt64(&fresh, 1)
		}
	}
	if d := s.opts.expThrottle; d > 0 {
		inner := cfg.OnResult
		cfg.OnResult = func(i int, seed int64, res *campaign.ExperimentResult) {
			inner(i, seed, res)
			time.Sleep(d)
		}
	}
	cfg.Completed = job.completedSnapshot()
	start := time.Now()
	sr, err := campaign.RunStudy(ctx, cfg)
	if err != nil {
		return err
	}
	if n := atomic.LoadInt64(&fresh); n > 0 {
		now := time.Now()
		job.noteHarvest(HarvestCheckpoint{
			Worker: "local", N: int(n),
			NS: now.Sub(start).Nanoseconds(), At: now,
		})
	}
	if job.Spec.Timeline || job.Spec.Profile {
		job.addShardObs(ShardObs{
			Worker: "local", Timeline: sr.Timeline, Profile: sr.HotProfile,
		})
	}
	return nil
}

// mergeShards replays every harvested triple through one merge-only
// RunStudy: the Completed map is fully populated, so zero experiments
// execute and the aggregation — campaign grouping, WallMin/WallMax
// folding, statistics, atlas site tallies — is the single-node code
// path over the single-node inputs. That is what makes the merged
// study byte-identical to an unsharded run of the same spec: even the
// exported wall fields derive from the per-experiment triples, not
// from this run's clock.
//
// Observability merges separately from the triples: the merge-only
// RunStudy runs with timeline and profile stripped (a merge pass
// executes nothing, so its own profile would be empty and its timeline
// a lie), and the harvested shard artifacts are folded in afterwards —
// profiles summed exactly over their uncapped stack rows, timelines
// re-anchored under the coordinator's dispatch/harvest span tree.
func (s *Server) mergeShards(ctx context.Context, job *Job, co *coordObs) (*campaign.StudyResult, error) {
	cfg, err := job.Spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Timeline, cfg.Profile, cfg.TraceParent = false, false, ""
	cfg.Metrics = job.reg
	cfg.Completed = job.completedSnapshot()
	mergeStart := time.Now()
	sr, err := campaign.RunStudy(ctx, cfg)
	if err != nil {
		return nil, err
	}
	parts := job.shardObsSnapshot()
	if job.Spec.Profile {
		var profs []*profile.Profile
		for _, o := range parts {
			profs = append(profs, o.Profile)
		}
		sr.HotProfile = profile.Merge(profs...)
	}
	if co != nil {
		co.span("merge", mergeStart, time.Since(mergeStart))
		var shards []obs.ShardTimeline
		for _, o := range parts {
			if o.Timeline != nil {
				shards = append(shards, obs.ShardTimeline{Worker: o.Worker, Timeline: o.Timeline})
			}
		}
		sr.Timeline = obs.MergeShards(co.finish(time.Since(co.epoch)), shards)
	}
	return sr, nil
}
