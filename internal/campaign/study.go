package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vulfi/internal/obs"
	"vulfi/internal/profile"
	"vulfi/internal/stats"
	"vulfi/internal/trace"
)

// CampaignResult aggregates one campaign of experiments (paper: 100).
type CampaignResult struct {
	Experiments int
	SDC         int
	Benign      int
	Crash       int
	// Hang is the budget-exceeded subset of Crash.
	Hang int
	// Detected counts experiments where a synthesized detector fired.
	Detected int
	// SDCDetected counts SDC experiments flagged by a detector (the
	// Figure 12 "SDC detection" numerator).
	SDCDetected int
	// NoSites counts vacuous experiments (no dynamic site in category).
	NoSites int

	// WallTotal/WallMin/WallMax aggregate per-experiment wall times;
	// WallMean derives the average. Only timed experiments (Wall > 0)
	// participate in the min/max: untimed results — e.g. merged from a
	// pre-timing serialization — never drag WallMin to zero or leave it
	// stale. All three are zero when no timed experiment was observed.
	WallTotal time.Duration
	WallMin   time.Duration
	WallMax   time.Duration
}

// WallMean returns the average experiment wall time.
func (c *CampaignResult) WallMean() time.Duration {
	if c.Experiments == 0 {
		return 0
	}
	return c.WallTotal / time.Duration(c.Experiments)
}

func (c *CampaignResult) add(r *ExperimentResult) {
	c.WallTotal += r.Wall
	if r.Wall > 0 {
		if c.WallMin == 0 || r.Wall < c.WallMin {
			c.WallMin = r.Wall
		}
		if r.Wall > c.WallMax {
			c.WallMax = r.Wall
		}
	}
	c.Experiments++
	switch r.Outcome {
	case OutcomeSDC:
		c.SDC++
		if r.Detected {
			c.SDCDetected++
		}
	case OutcomeBenign:
		c.Benign++
	case OutcomeCrash:
		c.Crash++
		if r.Hang {
			c.Hang++
		}
	}
	if r.Detected {
		c.Detected++
	}
	if r.DynSites == 0 {
		c.NoSites++
	}
}

func (c *CampaignResult) merge(o CampaignResult) {
	if o.WallMin > 0 && (c.WallMin == 0 || o.WallMin < c.WallMin) {
		c.WallMin = o.WallMin
	}
	if o.WallMax > c.WallMax {
		c.WallMax = o.WallMax
	}
	c.WallTotal += o.WallTotal
	c.Experiments += o.Experiments
	c.SDC += o.SDC
	c.Benign += o.Benign
	c.Crash += o.Crash
	c.Hang += o.Hang
	c.Detected += o.Detected
	c.SDCDetected += o.SDCDetected
	c.NoSites += o.NoSites
}

func rate(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// SDCRate returns the campaign's SDC fraction.
func (c *CampaignResult) SDCRate() float64 { return rate(c.SDC, c.Experiments) }

// BenignRate returns the campaign's benign fraction.
func (c *CampaignResult) BenignRate() float64 { return rate(c.Benign, c.Experiments) }

// CrashRate returns the campaign's crash fraction.
func (c *CampaignResult) CrashRate() float64 { return rate(c.Crash, c.Experiments) }

// SDCDetectionRate returns the fraction of SDCs flagged by detectors.
func (c *CampaignResult) SDCDetectionRate() float64 { return rate(c.SDCDetected, c.SDC) }

// StudyResult is a fully qualified study: all campaigns of one cell plus
// the paper's statistical summary.
type StudyResult struct {
	Cfg       Config
	Campaigns []CampaignResult
	Totals    CampaignResult

	// SDCRates are the per-campaign SDC rates (the random sample whose
	// distribution the paper qualifies).
	SDCRates []float64
	// MeanSDC and MarginOfError are the 95%-confidence summary.
	MeanSDC       float64
	MarginOfError float64
	// NearNormal reports the paper's normality criterion on the sample.
	NearNormal bool

	// StaticSites / LaneSites describe the instrumented module.
	StaticSites int
	LaneSites   int
	// MeanGoldenDynInstrs is the average golden-run dynamic instruction
	// count (Table I's per-benchmark figure).
	MeanGoldenDynInstrs float64

	// Wall is the study's total wall-clock time (prepare excluded).
	Wall time.Duration

	// Propagation is the study's aggregated fault-propagation profile
	// (nil unless Cfg.Trace was set).
	Propagation *trace.Summary

	// Sites is the per-static-site atlas (nil unless Cfg.Atlas was set):
	// one tally per instrumented site, lanes folded, injections attributed
	// through each experiment's InjectionRecord.
	Sites []SiteTally

	// HotProfile is the study's execution profile (nil unless
	// Cfg.Profile was set): hot opcodes, opcode pairs, hot sites, phase
	// breakdown, exp/s timeline.
	HotProfile *profile.Profile

	// Timeline is the study's merged span timeline (nil unless
	// Cfg.Timeline was set): the hierarchical span tree per worker
	// lane, exportable as JSONL or Chrome trace-event JSON. Resumed
	// studies span only the freshly executed tail — replayed
	// checkpoint entries never re-execute and record no spans.
	Timeline *obs.Timeline
}

// ExperimentSeed returns the deterministic seed of experiment index i
// under this configuration. The schedule depends only on Cfg.Seed and
// the index, so a checkpointed study can be resumed by replaying the
// completed indices and re-running the rest with identical seeds.
func (c Config) ExperimentSeed(i int) int64 {
	return c.Seed + int64(i)*0x9E3779B9 + 1
}

// InputSeed returns the seed that generates experiment i's program
// input. Without an input pool (Inputs <= 0) it equals ExperimentSeed(i)
// — every experiment draws its own input, the historical behavior. With
// Inputs = K > 0 experiment i draws from a pool of K seeds (index
// i mod K), so pool seed j generates exactly the input experiment j
// would have drawn uncached. The pool schedule depends only on Seed and
// K, never on the experiment count, so resumed studies see identical
// inputs.
func (c Config) InputSeed(i int) int64 {
	if c.Inputs <= 0 {
		return c.ExperimentSeed(i)
	}
	return c.ExperimentSeed(i % c.Inputs)
}

// RunStudy prepares the cell and runs Campaigns × Experiments paired
// experiments on a worker pool, grouping results into campaigns.
// Cancelling ctx stops the study cooperatively between experiments.
func RunStudy(ctx context.Context, cfg Config) (*StudyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunStudy(ctx)
}

// RunStudy runs the configured number of campaigns on a prepared cell.
// OnResult fires after every freshly executed experiment with its
// (index, seed, result) triple, for checkpoints and live progress.
//
// Cancellation is cooperative between experiments: in-flight experiments
// finish (and are reported through OnResult), no further
// experiments start, and RunStudy returns ctx.Err(). Likewise the first
// experiment error stops dispatch instead of wasting the rest of the
// study. Indices present in Cfg.Completed are not re-run; their recorded
// results are merged verbatim.
func (p *Prepared) RunStudy(ctx context.Context) (*StudyResult, error) {
	cfg := p.Cfg
	start := time.Now()
	if p.prof != nil {
		p.prof.StartTimeline(start)
	}
	total := cfg.Campaigns * cfg.Experiments
	results := make([]*ExperimentResult, total)
	errs := make([]error, total)
	for i, r := range cfg.Completed {
		if i >= 0 && i < total && r != nil {
			results[i] = r
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inflight := p.reg.Gauge("campaign.workers")
	inflight.Add(int64(workers))
	defer inflight.Add(-int64(workers))
	var wg sync.WaitGroup
	work := make(chan int)
	// abort closes on the first experiment error so the dispatcher stops
	// handing out work instead of running the study to completion.
	abort := make(chan struct{})
	var abortOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := p.workerCtx(w)
			for i := range work {
				seed := cfg.ExperimentSeed(i)
				if cfg.OnStart != nil {
					cfg.OnStart(i, w)
				}
				if wc != nil {
					wc.index = i
				}
				r, err := p.runExperimentOn(ctx, i, wc)
				results[i], errs[i] = r, err
				if err != nil {
					abortOnce.Do(func() { close(abort) })
					continue
				}
				if cfg.OnResult != nil {
					cfg.OnResult(i, seed, r)
				}
			}
		}(w)
	}
	// A shard runs only its index range; everything else executes the
	// full schedule. Checkpoint replay above is range-oblivious on
	// purpose: a merge-only run (fully populated Completed, no range)
	// aggregates every replayed triple without executing anything.
	lo, hi := 0, total
	if cfg.ShardEnd > 0 {
		lo, hi = cfg.ShardStart, cfg.ShardEnd
	}
dispatch:
	for i := lo; i < hi; i++ {
		if results[i] != nil {
			continue // replayed from a checkpoint
		}
		select {
		case work <- i:
		case <-abort:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", i, err)
		}
	}

	sr := &StudyResult{
		Cfg:         cfg,
		StaticSites: len(p.Inst.Sites),
		LaneSites:   len(p.Inst.LaneSites),
	}
	var dynSum float64
	present := 0
	for c := 0; c < cfg.Campaigns; c++ {
		var cr CampaignResult
		for e := 0; e < cfg.Experiments; e++ {
			r := results[c*cfg.Experiments+e]
			if r == nil {
				continue // outside the shard range
			}
			present++
			cr.add(r)
			dynSum += float64(r.GoldenDynInstrs)
		}
		sr.Campaigns = append(sr.Campaigns, cr)
		sr.Totals.merge(cr)
		sr.SDCRates = append(sr.SDCRates, cr.SDCRate())
	}
	sr.MeanSDC = stats.Mean(sr.SDCRates)
	sr.MarginOfError = stats.MarginOfError95(sr.SDCRates)
	sr.NearNormal = stats.NearNormal(sr.SDCRates)
	// Mean over the experiments that actually have results: identical
	// to /total for full runs, range-sized for shards.
	if present > 0 {
		sr.MeanGoldenDynInstrs = dynSum / float64(present)
	}
	if p.Profile != nil {
		sr.Propagation = p.Profile.Summary()
	}
	if cfg.Atlas {
		tallies, err := p.siteTallies(results)
		if err != nil {
			return nil, fmt.Errorf("atlas attribution: %w", err)
		}
		sr.Sites = tallies
	}
	if p.prof != nil {
		sr.HotProfile = p.prof.Snapshot()
	}
	sr.Wall = time.Since(start)
	if p.obs != nil {
		p.obs.Ctl(studyRootName(cfg), p.obs.Root(), p.obs.Parent(), start, sr.Wall,
			studyAttrs(cfg, total))
		sr.Timeline = p.obs.Finish(sr.Wall)
	}
	return sr, nil
}
