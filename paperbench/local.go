package main

import (
	"fmt"
	"runtime"
	"time"

	"vulfi/internal/campaign"
	"vulfi/internal/telemetry"
)

// roundStats is one pass over every cell of a local workload.
type roundStats struct {
	wall, setup, study time.Duration
	exps               int
	alloc              uint64
	expWalls           []float64 // ExperimentResult.Wall, ms
	attempted, failed  int
	errs               []string
	slow               float64       // host slowdown measured before the round (host.go)
	probe              time.Duration // traced only: time in the layer-by-layer probe
	layers             *layerRound   // traced only
}

// layerRound accumulates one traced round's per-layer counts and times.
type layerRound struct {
	lang, codegen, detect, instrument, vmc, prepare, firstInst time.Duration
	codegenInstrs, detectAdded, instrumented, laneSites        int
	vmCompiled, definedFuncs                                   int
	setups                                                     []time.Duration
	cleanRun, goldenRun                                        time.Duration
	cleanDyn, goldenDyn                                        uint64
	probes                                                     int
	goldenSum, compareSum, faultySum                           time.Duration
	goldenN, compareN, faultyN                                 int
	hits, misses                                               uint64
	busy, poolCapacity                                         time.Duration
	crash, hang, vacuous, exps                                 int
	wall, unaccounted                                          time.Duration
}

// localRound runs every cell of w once and checks each cell's digest.
// Cell k studies the seed of reference index idx+k: cells of one benchmark
// draw the same inputs from the same seed, so rotating the seed across
// cells keeps one heavy input draw from landing on all six of a
// benchmark's cells in the same round. With a tracer it first builds
// and probes each cell layer by layer, then runs the same study as the
// untraced round with spans around every layer call and a fresh
// telemetry registry per cell.
func localRound(w *workload, refs references, idx int, t *tracer) roundStats {
	var rs roundStats
	var lr *layerRound
	if t != nil {
		lr = &layerRound{}
		rs.layers = lr
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	root := t.begin("round", 0)
	for k, c := range w.cells {
		ci := (idx + k) % refSeeds
		cfg := c.config(refSeed(ci))
		n := cfg.Campaigns * cfg.Experiments
		rs.attempted += n
		cellSpan := t.begin("cell", root)
		var reg *telemetry.Registry
		if t != nil {
			probeSpan := t.begin("probe", cellSpan)
			err := lr.probeCell(cfg, t, probeSpan)
			rs.probe += t.end(probeSpan)
			if err != nil {
				rs.failed += n
				rs.errs = append(rs.errs, fmt.Sprintf("%s: %v", c.name, err))
				t.end(cellSpan)
				continue
			}
			reg = telemetry.NewRegistry()
			cfg.Metrics = reg
		}
		run, err := runCell(cfg, t, cellSpan)
		t.end(cellSpan)
		if err == nil {
			var d string
			if d, err = run.digest(); err == nil {
				err = refs.check(w.name, ci, c.name, d)
			}
		}
		if err != nil {
			rs.failed += n
			rs.errs = append(rs.errs, fmt.Sprintf("%s: %v", c.name, err))
			continue
		}
		rs.setup += run.prepare
		rs.study += run.study.Wall
		rs.exps += n
		for _, r := range run.results {
			rs.expWalls = append(rs.expWalls, ms(r.Wall))
		}
		if lr != nil {
			lr.addStudy(cfg, run, reg)
		}
	}
	rs.wall = time.Since(start)
	t.end(root)
	runtime.ReadMemStats(&m1)
	rs.alloc = m1.TotalAlloc - m0.TotalAlloc
	if lr != nil {
		lr.finish(t.snapshot(), root)
	}
	return rs
}

// probeCell builds and probes one cell layer by layer.
func (lr *layerRound) probeCell(cfg campaign.Config, t *tracer, parent int) error {
	b, err := buildLayers(cfg, t, parent)
	if err != nil {
		return err
	}
	pr, err := b.probe(cfg, t, parent)
	if err != nil {
		return err
	}
	lr.codegenInstrs += b.codegenInstrs
	lr.detectAdded += b.detectAdded
	lr.instrumented += b.instrumented
	lr.laneSites += len(b.inst.LaneSites)
	lr.vmCompiled += b.vmCompiled
	lr.definedFuncs += b.definedFuncs
	lr.setups = append(lr.setups, pr.setups...)
	lr.cleanRun += pr.cleanRun
	lr.goldenRun += pr.goldenRun
	lr.cleanDyn += pr.cleanDyn
	lr.goldenDyn += pr.goldenDyn
	lr.probes++
	return nil
}

// addStudy folds one traced study's registry, results and worker time
// into the round.
func (lr *layerRound) addStudy(cfg campaign.Config, run *cellRun, reg *telemetry.Registry) {
	lr.prepare += run.prepare
	g := reg.Histogram("campaign.golden").Snapshot()
	cmp := reg.Histogram("campaign.compare").Snapshot()
	lr.goldenSum += g.Sum
	lr.goldenN += int(g.Count)
	lr.compareSum += cmp.Sum
	lr.compareN += int(cmp.Count)
	lr.hits += reg.Counter("cache.hits").Value()
	lr.misses += reg.Counter("cache.misses").Value()
	lr.poolCapacity += time.Duration(cfg.Workers) * run.study.Wall
	for _, r := range run.results {
		lr.exps++
		if r.FaultyWall > 0 {
			lr.faultySum += r.FaultyWall
			lr.faultyN++
		}
		if r.Outcome == campaign.OutcomeCrash {
			lr.crash++
		}
		if r.Hang {
			lr.hang++
		}
		if r.DynSites == 0 {
			lr.vacuous++
		}
	}
}

// finish reads the round's layer times off its spans: the sum of
// each layer's spans, the workers' busy time, and the part of the round
// no layer span covers.
func (lr *layerRound) finish(spans []span, root int) {
	sub := subtree(spans, root)
	self := selfTimes(sub)
	for _, s := range sub {
		d := s.dur()
		switch s.Name {
		case "lang.compile":
			lr.lang += d
		case "codegen.compile":
			lr.codegen += d
		case "detect.passes":
			lr.detect += d
		case "core.instrument":
			lr.instrument += d
		case "vm.compile":
			lr.vmc += d
		case "exec.first_instance":
			lr.firstInst += d
		case "campaign.experiment":
			lr.busy += d
		case "round":
			lr.wall = d
		}
	}
	lr.unaccounted = self["round"] + self["cell"] + self["probe"] + self["job"]
}

// subtree returns root and every span below it.
func subtree(spans []span, root int) []span {
	in := map[int]bool{root: true}
	var out []span
	for _, s := range spans { // parents are recorded before their children
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
