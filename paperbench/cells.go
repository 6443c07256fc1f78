package main

import (
	"context"
	"fmt"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// The benchmark is sized for a 2-core machine, so at most two study
// workers execute at any moment. fixed-input runs one: its experiments
// are a few milliseconds of allocation-heavy faulty execution, and two
// workers on two cores bought 15% more experiments per second while
// doubling the run-to-run spread its figures took from the host's load.
const (
	studyWorkers      = 2
	fixedInputWorkers = 1
)

// cell is one study cell of a workload: a campaign configuration without
// its seed.
type cell struct {
	name string
	cfg  campaign.Config
}

// config returns the cell's configuration for one study seed.
func (c cell) config(seed int64) campaign.Config {
	cfg := c.cfg
	cfg.Seed = seed
	return cfg
}

// workload is one named input set of the benchmark. Local workloads run
// their cells one after another in-process; vulfid-jobs submits its one
// cell as daemon jobs.
type workload struct {
	name  string
	why   string
	cells []cell
	jobs  bool
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workloads defines the benchmark's four workloads.
func workloads() []*workload {
	return []*workload{
		{
			name: "fresh-inputs",
			why:  "Figure 11 matrix, fresh input per experiment: execution-bound, golden and faulty runs both execute, golden cache bypassed",
			cells: matrix(benchmarks.Study(), benchmarks.ScaleDefault, campaign.Config{
				Campaigns: 2, Experiments: 8, Inputs: 0, Workers: studyWorkers}),
		},
		{
			name: "fixed-input",
			why:  "same 54 cells in the paper's fixed-input mode on 1 study worker: golden runs hit the cache, the faulty run is the experiment",
			cells: matrix(benchmarks.Study(), benchmarks.ScaleDefault, campaign.Config{
				Campaigns: 2, Experiments: 4, Inputs: 1, Workers: fixedInputWorkers}),
		},
		{
			name: "matrix-scan",
			why:  "all 13 benchmarks x 3 categories x 2 ISAs at test scale with the Figure 12 detectors: per-cell build costs dominate",
			cells: matrix(benchmarks.All(), benchmarks.ScaleTest, campaign.Config{
				Campaigns: 2, Experiments: 4, Workers: studyWorkers}),
		},
		{
			name: "vulfid-jobs",
			why:  "paper-size 20x100 VectorCopy study as alternating single-node and 2-shard daemon jobs: queue, journal, SSE, harvest, merge",
			cells: []cell{{
				name: "VectorCopy/AVX/pure-data",
				cfg: campaign.Config{
					Benchmark: benchmarks.VectorCopy, ISA: isa.AVX,
					Category: passes.PureData, Scale: benchmarks.ScaleDefault,
					Campaigns: 20, Experiments: 100, Workers: 1, Backend: "vm",
				},
			}},
			jobs: true,
		},
	}
}

// matrix crosses benchmarks with both ISAs and the three site categories.
// The §IV-E micro-benchmarks carry the §III detectors, as in Figure 12.
func matrix(bs []*benchmarks.Benchmark, scale benchmarks.Scale, base campaign.Config) []cell {
	var out []cell
	for _, b := range bs {
		for _, target := range isa.All {
			for _, cat := range passes.AllCategories {
				cfg := base
				cfg.Benchmark, cfg.ISA, cfg.Category, cfg.Scale = b, target, cat, scale
				cfg.Backend = "vm"
				if b.Suite == "Micro" {
					cfg.Detectors, cfg.BroadcastDetector = true, true
				}
				out = append(out, cell{name: cfg.String(), cfg: cfg})
			}
		}
	}
	return out
}

// cellRun is one executed study cell.
type cellRun struct {
	prepare time.Duration
	study   *campaign.StudyResult
	results []*campaign.ExperimentResult
}

// runCell prepares and runs one cell, collecting every experiment result
// in index order through the OnResult checkpoint hook. With a tracer it
// also records campaign.prepare and campaign.study spans under parent,
// and one campaign.experiment span per experiment from the worker pool's
// OnStart to its OnResult.
func runCell(cfg campaign.Config, t *tracer, parent int) (*cellRun, error) {
	n := cfg.Campaigns * cfg.Experiments
	run := &cellRun{results: make([]*campaign.ExperimentResult, n)}
	// Each index is written by one worker call; RunStudy's return orders
	// the writes before the reads.
	cfg.OnResult = func(i int, _ int64, r *campaign.ExperimentResult) { run.results[i] = r }
	var studySpan int
	if t != nil {
		starts := make([]time.Time, n)
		cfg.OnStart = func(i, _ int) { starts[i] = time.Now() }
		cfg.OnResult = func(i int, _ int64, r *campaign.ExperimentResult) {
			run.results[i] = r
			t.record("campaign.experiment", studySpan, starts[i], time.Now())
		}
	}
	var p *campaign.Prepared
	var err error
	run.prepare = t.timed("campaign.prepare", parent, func() { p, err = campaign.Prepare(cfg) })
	if err != nil {
		return nil, err
	}
	studySpan = t.begin("campaign.study", parent)
	run.study, err = p.RunStudy(context.Background())
	t.end(studySpan)
	if err != nil {
		return nil, err
	}
	return run, nil
}

func (r *cellRun) digest() (string, error) {
	return cellDigest(r.study.StaticSites, r.study.LaneSites, r.results)
}

// runCellDigest runs one cell and returns its digest.
func runCellDigest(cfg campaign.Config) (string, error) {
	run, err := runCell(cfg, nil, 0)
	if err != nil {
		return "", err
	}
	return run.digest()
}
