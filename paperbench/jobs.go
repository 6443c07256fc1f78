package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/campaign"
	"vulfi/internal/client"
	"vulfi/internal/server"
	"vulfi/internal/telemetry"
)

// harvestEvery is the coordinator's shard poll interval. The daemon
// default (2s) is longer than a whole 20x100 VectorCopy study, which would
// make every sharded job one poll wait; everything else keeps its default.
const harvestEvery = 50 * time.Millisecond

// reRegisterEvery refreshes worker registrations well inside the
// coordinator's 15s worker TTL, as vulfid -join does.
const reRegisterEvery = 5 * time.Second

// fleet is an in-process coordinator plus two workers, each with its own
// journal directory under dir.
type fleet struct {
	dir       string
	servers   []*server.Server // coordinator first
	https     []*http.Server
	addrs     []string
	coord     *client.Client
	stop      chan struct{}
	heartbeat sync.WaitGroup
}

// startFleet brings a fleet up and registers both workers.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{dir: dir, stop: make(chan struct{})}
	for i, name := range []string{"coordinator", "worker-1", "worker-2"} {
		s, err := server.New(server.Options{
			JournalDir:   filepath.Join(dir, name),
			Coordinator:  i == 0,
			HarvestEvery: harvestEvery,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		hs, addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			_ = s.Drain(context.Background())
			f.close()
			return nil, err
		}
		f.servers, f.https, f.addrs = append(f.servers, s), append(f.https, hs), append(f.addrs, addr)
	}
	f.coord = client.New(f.addrs[0])
	if err := f.register(); err != nil {
		f.close()
		return nil, err
	}
	f.heartbeat.Add(1)
	go func() {
		defer f.heartbeat.Done()
		tick := time.NewTicker(reRegisterEvery)
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				if err := f.register(); err != nil {
					fmt.Fprintf(os.Stderr, "paperbench: worker re-registration: %v\n", err)
				}
			}
		}
	}()
	return f, nil
}

func (f *fleet) register() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, addr := range f.addrs[1:] {
		reg := api.WorkerRegistration{URL: "http://" + addr, Name: fmt.Sprintf("worker-%d", i+1)}
		if _, err := f.coord.RegisterWorker(ctx, reg); err != nil {
			return fmt.Errorf("register %s: %w", reg.Name, err)
		}
	}
	return nil
}

// close stops the heartbeat, drains every server (coordinator first, so
// it stops dispatching), closes their listeners and removes the journals.
func (f *fleet) close() error {
	close(f.stop)
	f.heartbeat.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for i, s := range f.servers {
		if err := s.Drain(ctx); err != nil && first == nil {
			first = fmt.Errorf("drain: %w", err)
		}
		_ = f.https[i].Close() // open SSE streams end with the listener
	}
	if err := os.RemoveAll(f.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// jobRun is one job of the closed loop.
type jobRun struct {
	sharded                    bool
	id                         string
	latency, submit, doneLag   time.Duration
	created, started, finished time.Time
	exps                       int
	expWalls                   []float64 // ms
	journalBytes               int64
	err                        error
}

// jobSpec is the wire form of the workload's cell at one study seed.
func jobSpec(cfg campaign.Config, shards int) api.Spec {
	return api.Spec{
		Benchmark: cfg.Benchmark.Name, ISA: cfg.ISA.Name, Category: cfg.Category.String(),
		Scale: cfg.Scale.String(), Experiments: cfg.Experiments, Campaigns: cfg.Campaigns,
		Seed: cfg.Seed, Workers: cfg.Workers, Backend: cfg.Backend, Shards: shards,
	}
}

// runJob submits one job, follows it to its end over SSE, then fetches its
// experiment triples and checks their digest against the tree-walker
// reference for the same cell and seed.
func (f *fleet) runJob(w *workload, refs references, idx int, shards int, t *tracer, parent int) jobRun {
	c := w.cells[0]
	cfg := c.config(refSeed(idx))
	jr := jobRun{sharded: shards > 1}
	ctx := context.Background()
	start := time.Now()
	var st *api.Status
	var err error
	jr.submit = t.timed("client.submit", parent, func() { st, err = f.coord.Submit(ctx, jobSpec(cfg, shards)) })
	if err != nil {
		jr.err = fmt.Errorf("submit: %w", err)
		return jr
	}
	jr.id = st.ID
	var fin *api.Status
	t.timed("client.tail", parent, func() { fin, err = f.coord.Tail(ctx, st.ID, nil) })
	done := time.Now()
	jr.latency = done.Sub(start)
	if err != nil {
		jr.err = fmt.Errorf("tail %s: %w", st.ID, err)
		return jr
	}
	if fin.State != api.StateDone {
		jr.err = fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
		return jr
	}
	jr.created = fin.Created
	if fin.Started != nil && fin.Finished != nil {
		jr.started, jr.finished = *fin.Started, *fin.Finished
		jr.doneLag = done.Sub(jr.finished)
	}
	if info, err := os.Stat(server.JournalPath(filepath.Join(f.dir, "coordinator"), st.ID)); err == nil {
		jr.journalBytes = info.Size()
	}
	results, d, err := fetchDigest(ctx, f.coord, fin, cfg.Campaigns*cfg.Experiments)
	if err == nil {
		err = refs.check(w.name, idx, c.name, d)
	}
	if err != nil {
		jr.err = err
		return jr
	}
	jr.exps = len(results)
	for _, r := range results {
		jr.expWalls = append(jr.expWalls, ms(r.Wall))
	}
	return jr
}

// fetchDigest fetches a finished job's experiment triples and digests
// them with the site counts from its study result.
func fetchDigest(ctx context.Context, cl *client.Client, fin *api.Status, total int) ([]*campaign.ExperimentResult, string, error) {
	recs, err := cl.Experiments(ctx, fin.ID, 0, total)
	if err != nil {
		return nil, "", fmt.Errorf("experiments %s: %w", fin.ID, err)
	}
	results := make([]*campaign.ExperimentResult, total)
	for _, r := range recs {
		if r.Index < 0 || r.Index >= total {
			return nil, "", fmt.Errorf("job %s: experiment index %d out of range", fin.ID, r.Index)
		}
		results[r.Index] = r.Result
	}
	var sites struct {
		Static int `json:"static_sites"`
		Lane   int `json:"lane_sites"`
	}
	if err := json.Unmarshal(fin.Result, &sites); err != nil {
		return nil, "", fmt.Errorf("job %s result: %w", fin.ID, err)
	}
	d, err := cellDigest(sites.Static, sites.Lane, results)
	if err != nil {
		return nil, "", fmt.Errorf("job %s: %w", fin.ID, err)
	}
	return results, d, nil
}

// jobRound is one fleet's life: bring-up, one single-node job, one 2-shard
// job, the fleet's accounting check and drain.
type jobRound struct {
	wall, setup time.Duration
	alloc       uint64
	jobs        []jobRun
	fleetErr    error
	slow        float64 // host slowdown measured before the round (host.go)
	// traced only: shard timings, and the work the untraced round lacks
	// (the layer probe and in-process twin of the single-node job, and
	// the shard-timing queries).
	timings []shardTiming
	extra   time.Duration
	layers  *layerRound
	twin    time.Duration // in-process Prepare + RunStudy
}

// jobsRound runs one round on a fresh fleet under dir. A daemon keeps
// every finished job in memory, so a fleet that lived for the whole run
// would grow its heap, and with it GC pauses and peak RSS, with the number
// of jobs the run happened to fit in; a fleet per round keeps rounds
// alike.
func jobsRound(dir string, w *workload, refs references, idx int, t *tracer) jobRound {
	var jr jobRound
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	root := t.begin("round", 0)
	if t != nil {
		jr.layers = &layerRound{}
		cfg := w.cells[0].config(refSeed(idx))
		cellSpan := t.begin("cell", root)
		probeSpan := t.begin("probe", cellSpan)
		err := jr.layers.probeCell(cfg, t, probeSpan)
		t.end(probeSpan)
		if err == nil {
			var run *cellRun
			reg := telemetry.NewRegistry()
			cfg.Metrics = reg
			if run, err = runCell(cfg, t, cellSpan); err == nil {
				jr.layers.addStudy(cfg, run, reg)
				jr.twin = run.prepare + run.study.Wall
			}
		}
		jr.extra = t.end(cellSpan)
		if err != nil {
			jr.jobs = append(jr.jobs, jobRun{err: fmt.Errorf("in-process twin: %w", err)})
		}
	}
	var f *fleet
	var err error
	jr.setup = t.timed("fleet.start", root, func() { f, err = startFleet(dir) })
	if err == nil {
		for _, shards := range []int{0, 2} {
			jobSpan := t.begin("job", root)
			jr.jobs = append(jr.jobs, f.runJob(w, refs, idx, shards, t, jobSpan))
			t.end(jobSpan)
		}
		jr.fleetErr = f.check(&jr, t, root)
		t.timed("fleet.close", root, func() { err = f.close() })
		if err != nil && jr.fleetErr == nil {
			jr.fleetErr = err
		}
	} else {
		jr.jobs = append(jr.jobs, jobRun{err: fmt.Errorf("fleet: %w", err)})
	}
	jr.wall = time.Since(start)
	t.end(root)
	runtime.ReadMemStats(&m1)
	jr.alloc = m1.TotalAlloc - m0.TotalAlloc
	if jr.layers != nil {
		jr.layers.finish(t.snapshot(), root)
	}
	return jr
}

// check runs the fleet accounting check after a round's jobs and, when
// traced, reads the sharded job's timings off the workers.
func (f *fleet) check(jr *jobRound, t *tracer, root int) error {
	ctx := context.Background()
	sharded := 0
	for _, j := range jr.jobs {
		if j.sharded && j.err == nil {
			sharded += j.exps
		}
	}
	if err := f.fleetCheck(ctx, sharded); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	var err error
	jr.extra += t.timed("bench.shard_timing", root, func() {
		for _, j := range jr.jobs {
			if j.sharded && j.err == nil {
				var st shardTiming
				if st, err = f.shardTiming(ctx, j); err != nil {
					return
				}
				jr.timings = append(jr.timings, st)
			}
		}
	})
	return err
}

// shardTiming reads a sharded job's dispatch and harvest timings off the
// workers' own job lists: its shard jobs are the worker jobs created while
// it ran (the closed loop keeps one job in flight).
type shardTiming struct {
	dispatch, tail time.Duration
	skew           float64
}

func (f *fleet) shardTiming(ctx context.Context, jr jobRun) (shardTiming, error) {
	var st shardTiming
	var lastCreated, lastFinished time.Time
	var runs []time.Duration
	for _, addr := range f.addrs[1:] {
		jobs, err := client.New(addr).Jobs(ctx)
		if err != nil {
			return st, err
		}
		for _, j := range jobs {
			if j.Created.Before(jr.started) || j.Created.After(jr.finished) ||
				j.Started == nil || j.Finished == nil {
				continue
			}
			if j.Created.After(lastCreated) {
				lastCreated = j.Created
			}
			if j.Finished.After(lastFinished) {
				lastFinished = *j.Finished
			}
			runs = append(runs, j.Finished.Sub(*j.Started))
		}
	}
	if len(runs) == 0 {
		return st, fmt.Errorf("job %s: no shard jobs found on the workers", jr.id)
	}
	st.dispatch = lastCreated.Sub(jr.started)
	st.tail = jr.finished.Sub(lastFinished)
	lo, hi := runs[0], runs[0]
	for _, r := range runs {
		lo, hi = min(lo, r), max(hi, r)
	}
	st.skew = ratio(float64(hi), float64(lo))
	return st, nil
}

// fleetCheck compares the coordinator's fleet view with what was
// submitted: the workers must have harvested every sharded experiment,
// and no worker may have been lost or any range reassigned.
func (f *fleet) fleetCheck(ctx context.Context, shardedExps int) error {
	fl, err := f.coord.Fleet(ctx)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if fl.WorkersLost != 0 || fl.Reassigned != 0 {
		return fmt.Errorf("fleet: %d workers lost, %d ranges reassigned", fl.WorkersLost, fl.Reassigned)
	}
	harvested := 0
	for _, w := range fl.Workers {
		harvested += w.Harvested
	}
	if harvested != shardedExps {
		return fmt.Errorf("fleet: harvested %d experiments, %d sharded experiments submitted", harvested, shardedExps)
	}
	return nil
}
