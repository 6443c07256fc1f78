// Command paperbench is the repository's benchmark: it drives the paper's
// study matrix through the public entry points of every layer, prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by name
// with unit and sample count, and checks every study cell's outcome digest
// against the tree-walking interpreter's. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash paperbench/run.sh --workload fresh-inputs --seed 1 --seconds 25 --trace 0
//	bash paperbench/run.sh --regen paperbench/reference.json
//
// See paperbench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: fresh-inputs, fixed-input, matrix-scan or vulfid-jobs")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		regen   = flag.String("regen", "", "recompute the tree-walker reference digests (of --workload only, if set) into this file and exit")
	)
	flag.Parse()
	if *regen != "" {
		if err := regenerate(*regen, *name); err != nil {
			fail(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	refs, err := loadReferences()
	if err != nil {
		fail(err)
	}
	budget := time.Duration(*seconds) * time.Second
	var rep *report
	switch {
	case w.jobs:
		rep, err = runJobs(w, refs, *seed, budget, *traced == 1)
	default:
		rep = runLocal(w, refs, *seed, budget, *traced == 1)
	}
	if err != nil {
		fail(err)
	}
	if *traced == 1 {
		path := filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		if err := writeSpans(path, rep.spans); err != nil {
			fail(err)
		}
	}
	rep.print(w)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(2)
}

// row is one printed metric.
type row struct {
	name  string
	value float64
	unit  string
	n     int    // sample count
	note  string // how it was taken
	json  bool   // part of the JSON result (named in BENCHMARK.json)
}

type report struct {
	rows              []row
	attempted, failed int
	errs              []string
	spans             []span
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.rows = append(r.rows, row{name: name, value: value, unit: unit, n: n, note: note, json: true})
}

// info adds a printed metric that the JSON result leaves out: it is
// undefined or structurally zero on some workload.
func (r *report) info(name string, value float64, unit string, n int, note string) {
	r.rows = append(r.rows, row{name: name, value: value, unit: unit, n: n, note: note})
}

func (r *report) print(w *workload) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	for _, e := range r.errs {
		fmt.Printf("FAILED %s\n", e)
	}
	metrics := map[string]any{}
	for _, m := range r.rows {
		fmt.Printf("  %-32s %16.6f %-9s n=%-6d %s\n", m.name, m.value, m.unit, m.n, m.note)
		if m.json {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	out, _ := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	fmt.Println(string(out))
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// another reports whether a run that started at start and has completed
// rounds rounds should start one more. It stops once that round, at the
// mean length of those so far, would end more than half a round past the
// budget, so a run lasts about its budget whatever its round length.
func another(start time.Time, rounds int, budget time.Duration) bool {
	if rounds == 0 {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(2*rounds) < budget
}

// runLocal runs rounds of a local workload until the budget is spent. An
// untraced run reports the end-to-end metrics. A traced run alternates an
// untraced and a traced round on the same seed, so bench.trace_overhead
// compares like with like, and reports the per-layer metrics of the
// traced rounds.
func runLocal(w *workload, refs references, seed int64, budget time.Duration, traced bool) *report {
	rep := &report{}
	var t *tracer
	if traced {
		t = &tracer{}
	}
	var plain, withTrace []roundStats
	start := time.Now()
	for r := 0; another(start, r, budget); r++ {
		idx := refIndex(seed, r)
		slow := hostSlowdown()
		rs := localRound(w, refs, idx, nil)
		rs.slow = slow
		plain = append(plain, rs)
		if traced {
			withTrace = append(withTrace, localRound(w, refs, idx, t))
		}
	}
	for _, rs := range append(plain, withTrace...) {
		rep.attempted += rs.attempted
		rep.failed += rs.failed
		rep.errs = append(rep.errs, rs.errs...)
	}
	if traced {
		rep.spans = t.snapshot()
		var layers []*layerRound
		var same, base time.Duration
		for i, rs := range withTrace {
			layers = append(layers, rs.layers)
			same += rs.wall - rs.probe
			base += plain[i].wall
		}
		layerRows(rep, layers, ratio(float64(same), float64(base))-1)
		return rep
	}
	// Times are scaled by each round's host slowdown (see host.go).
	var walls, rawWalls, setups, slows []float64
	var expWalls [][]float64
	var exps int
	var study, rawStudy float64
	var alloc uint64
	for _, rs := range plain {
		walls = append(walls, rs.wall.Seconds()/rs.slow)
		rawWalls = append(rawWalls, rs.wall.Seconds())
		setups = append(setups, rs.setup.Seconds()/rs.slow)
		slows = append(slows, rs.slow)
		expWalls = append(expWalls, scaled(rs.expWalls, rs.slow))
		exps += rs.exps
		study += rs.study.Seconds() / rs.slow
		rawStudy += rs.study.Seconds()
		alloc += rs.alloc
	}
	rounds := len(plain)
	rep.add("exp_per_s", ratio(float64(exps), study), "exp/s", exps, "experiments / summed RunStudy wall")
	rep.add("wall_s", median(walls), "s", rounds, "median round: every cell, Prepare included")
	rep.add("setup_s", median(setups), "s", rounds, "median round: summed campaign.Prepare")
	expRows(rep, expWalls, "rounds")
	rep.add("alloc_kb_per_exp", ratio(float64(alloc), float64(exps))/1024, "KiB", exps, "TotalAlloc delta / experiments")
	rep.add("peak_rss_mb", peakRSSMiB(), "MiB", 1, "getrusage ru_maxrss")
	rep.info("error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "fraction", rep.attempted, "failed / attempted experiments")
	hostRows(rep, slows, ratio(float64(exps), rawStudy), median(rawWalls))
	return rep
}

// hostRows prints the host slowdown the times were scaled by and the
// unscaled throughput and round wall.
func hostRows(rep *report, slows []float64, rawRate, rawWall float64) {
	rep.info("host_slowdown", median(slows), "ratio", len(slows), "median round: hostProbe time / probeRef; times above are divided by it")
	rep.info("raw.exp_per_s", rawRate, "exp/s", len(slows), "exp_per_s unscaled")
	rep.info("raw.wall_s", rawWall, "s", len(slows), "wall_s unscaled")
}

// expRows adds the per-experiment wall-time median and tail. The median
// pools every experiment of the run. The tail is taken per group (a local
// round, or one campaign of a job) and reported as the median over groups: a pooled
// "ten beyond" rank would be the eleventh-slowest experiment of the whole
// run, which one contended second decides.
func expRows(rep *report, groups [][]float64, unit string) {
	var all, tails []float64
	var tl tailStat
	for _, walls := range groups {
		all = append(all, walls...)
		tl = tail(walls)
		tails = append(tails, tl.Value)
	}
	rep.add("exp_p50_ms", median(all), "ms", len(all), "median ExperimentResult.Wall")
	how := fmt.Sprintf("median over %d %s of", len(groups), unit)
	note := how + " the median (no tail: fewer than 11 samples)"
	if tl.OK {
		note = fmt.Sprintf("%s p%.2f (rank %d of %d)", how, tl.Percentile, tl.Rank, tl.N)
	}
	rep.add("exp_tail_ms", median(tails), "ms", len(all), note)
}

// layerRows adds the per-layer metrics: the median over traced rounds of
// each round's value.
func layerRows(rep *report, rounds []*layerRound, overhead float64) {
	n := len(rounds)
	med := func(f func(lr *layerRound) float64) float64 {
		var xs []float64
		for _, lr := range rounds {
			xs = append(xs, f(lr))
		}
		return median(xs)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var setups []float64
	for _, lr := range rounds {
		for _, s := range lr.setups {
			setups = append(setups, us(s))
		}
	}
	rep.add("lang.compile_ms", med(func(l *layerRound) float64 { return ms(l.lang) }), "ms", n, "per round: summed lang.Compile")
	rep.add("codegen.compile_ms", med(func(l *layerRound) float64 { return ms(l.codegen) }), "ms", n, "per round: summed codegen.Compile")
	rep.add("codegen.ir_instrs", med(func(l *layerRound) float64 { return float64(l.codegenInstrs) }), "count", n, "per round: IR instructions after codegen")
	rep.info("detect.passes_ms", med(func(l *layerRound) float64 { return ms(l.detect) }), "ms", n, "per round: detector passes (0 without detector cells)")
	rep.info("detect.ir_instrs_added", med(func(l *layerRound) float64 { return float64(l.detectAdded) }), "count", n, "per round: instructions the detectors inserted")
	rep.add("core.instrument_ms", med(func(l *layerRound) float64 { return ms(l.instrument) }), "ms", n, "per round: InstrumentPass under passes.Manager")
	rep.add("core.lane_sites", med(func(l *layerRound) float64 { return float64(l.laneSites) }), "count", n, "per round: lane sites")
	rep.add("core.ir_growth", med(func(l *layerRound) float64 { return ratio(float64(l.instrumented), float64(l.codegenInstrs)) }), "ratio", n, "instrumented / clean IR instructions")
	rep.add("vm.compile_ms", med(func(l *layerRound) float64 { return ms(l.vmc) }), "ms", n, "per round: vm.Compile of the instrumented module")
	rep.add("vm.coverage", med(func(l *layerRound) float64 { return ratio(float64(l.vmCompiled), float64(l.definedFuncs)) }), "ratio", n, "NumCompiled / defined functions")
	rep.add("campaign.prepare_ms", med(func(l *layerRound) float64 { return ms(l.prepare) }), "ms", n, "per round: summed campaign.Prepare")
	rep.add("exec.first_instance_ms", med(func(l *layerRound) float64 { return ms(l.firstInst) }), "ms", n, "per round: NewInstance + vm/core/detect attach")
	rep.add("benchmarks.setup_us", median(setups), "us", len(setups), "median Benchmark.Setup call")
	rep.add("exec.clean_run_us", med(func(l *layerRound) float64 { return ratio(us(l.cleanRun), float64(l.probes)) }), "us", n, "mean clean CallExport per cell")
	rep.add("exec.clean_dyn_instrs", med(func(l *layerRound) float64 { return ratio(float64(l.cleanDyn), float64(l.probes)) }), "count", n, "mean per cell")
	rep.add("exec.golden_run_us", med(func(l *layerRound) float64 { return ratio(us(l.goldenRun), float64(l.probes)) }), "us", n, "mean CountOnly CallExport per cell")
	rep.add("exec.golden_dyn_instrs", med(func(l *layerRound) float64 { return ratio(float64(l.goldenDyn), float64(l.probes)) }), "count", n, "mean per cell")
	rep.add("exec.instr_overhead", med(func(l *layerRound) float64 { return ratio(float64(l.goldenDyn), float64(l.cleanDyn)) }), "ratio", n, "golden / clean dynamic instructions")
	rep.add("exec.ns_per_dyn_instr", med(func(l *layerRound) float64 { return ratio(float64(l.goldenRun), float64(l.goldenDyn)) }), "ns", n, "golden run time / golden dynamic instructions")
	rep.add("campaign.golden_ms", med(func(l *layerRound) float64 { return ratio(ms(l.goldenSum), float64(l.goldenN)) }), "ms", n, "mean campaign.golden histogram")
	rep.add("campaign.compare_us", med(func(l *layerRound) float64 { return ratio(us(l.compareSum), float64(l.compareN)) }), "us", n, "mean campaign.compare histogram")
	rep.add("campaign.faulty_ms", med(func(l *layerRound) float64 { return ratio(ms(l.faultySum), float64(l.faultyN)) }), "ms", n, "mean ExperimentResult.FaultyWall")
	rep.add("campaign.cache_hit_ratio", med(func(l *layerRound) float64 { return ratio(float64(l.hits), float64(l.hits+l.misses)) }), "ratio", n, "cache.hits / (hits + misses)")
	rep.add("campaign.cache_misses", med(func(l *layerRound) float64 { return float64(l.misses) }), "count", n, "per round: cache.misses")
	rep.add("campaign.pool_busy_frac", med(func(l *layerRound) float64 { return ratio(float64(l.busy), float64(l.poolCapacity)) }), "ratio", n, "OnStart->OnResult / (workers x RunStudy wall)")
	rep.add("campaign.crash_frac", med(func(l *layerRound) float64 { return ratio(float64(l.crash), float64(l.exps)) }), "ratio", n, "crash outcomes / experiments")
	rep.add("campaign.hang_frac", med(func(l *layerRound) float64 { return ratio(float64(l.hang), float64(l.exps)) }), "ratio", n, "hangs / experiments")
	rep.add("campaign.vacuous_frac", med(func(l *layerRound) float64 { return ratio(float64(l.vacuous), float64(l.exps)) }), "ratio", n, "DynSites == 0 / experiments")
	rep.add("bench.trace_overhead", overhead, "ratio", n, "traced / untraced round wall - 1, same seeds, probe excluded")
	rep.add("bench.unaccounted_frac", med(func(l *layerRound) float64 { return ratio(float64(l.unaccounted), float64(l.wall)) }), "ratio", n, "traced round time outside every layer span")
}

// runJobs runs the vulfid-jobs workload: rounds of one fleet each (see
// jobsRound) until the budget is spent, so a run brings its fleet up once
// per round and setup_s is the median bring-up.
func runJobs(w *workload, refs references, seed int64, budget time.Duration, traced bool) (*report, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "vulfid-jobs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &report{}
	var t *tracer
	if traced {
		t = &tracer{}
	}
	var plain, withTrace []jobRound
	start := time.Now()
	for r := 0; another(start, r, budget); r++ {
		idx := refIndex(seed, r)
		slow := hostSlowdown()
		jr := jobsRound(filepath.Join(dir, fmt.Sprint(r)), w, refs, idx, nil)
		jr.slow = slow
		plain = append(plain, jr)
		if traced {
			withTrace = append(withTrace, jobsRound(filepath.Join(dir, fmt.Sprint(r, "t")), w, refs, idx, t))
		}
	}
	for _, jr := range append(plain, withTrace...) {
		for _, j := range jr.jobs {
			rep.attempted++
			switch {
			case j.err != nil:
				rep.failed++
				rep.errs = append(rep.errs, j.err.Error())
			case j.sharded && jr.fleetErr != nil:
				rep.failed++
			}
		}
		if jr.fleetErr != nil {
			rep.errs = append(rep.errs, jr.fleetErr.Error())
		}
	}
	if traced {
		rep.spans = t.snapshot()
		var layers []*layerRound
		var same, base time.Duration
		for i, jr := range withTrace {
			layers = append(layers, jr.layers)
			same += jr.wall - jr.extra
			base += plain[i].wall
		}
		layerRows(rep, layers, ratio(float64(same), float64(base))-1)
		daemonRows(rep, withTrace)
		return rep, nil
	}
	// Times are scaled by each round's host slowdown (see host.go).
	var walls, rawWalls, single, sharded []float64
	var expWalls [][]float64
	var exps int
	var busy, rawBusy float64
	var alloc uint64
	var setups, slows []float64
	for _, jr := range plain {
		walls = append(walls, jr.wall.Seconds()/jr.slow)
		rawWalls = append(rawWalls, jr.wall.Seconds())
		setups = append(setups, jr.setup.Seconds()/jr.slow)
		slows = append(slows, jr.slow)
		alloc += jr.alloc
		for _, j := range jr.jobs {
			if j.err != nil {
				continue
			}
			exps += j.exps
			busy += j.latency.Seconds() / jr.slow
			rawBusy += j.latency.Seconds()
			if j.sharded {
				sharded = append(sharded, ms(j.latency)/jr.slow)
			} else {
				single = append(single, ms(j.latency)/jr.slow)
				// Sharded experiments share the workers with harvest
				// polls and merges and form a second, wider population,
				// so only single-node jobs are counted. Each campaign
				// (the paper's 100 experiments) is one tail group: a
				// job-wide "ten beyond" rank would be its eleventh
				// slowest sub-millisecond experiment, which scheduling
				// hiccups decide.
				per := w.cells[0].cfg.Experiments
				walls := scaled(j.expWalls, jr.slow)
				for lo := 0; lo+per <= len(walls); lo += per {
					expWalls = append(expWalls, walls[lo:lo+per])
				}
			}
		}
	}
	rep.add("exp_per_s", ratio(float64(exps), busy), "exp/s", exps, "experiments / summed submit-to-done")
	rep.add("wall_s", median(walls), "s", len(walls), "median round: fleet up, one single-node + one 2-shard job, checks, drain")
	rep.add("setup_s", median(setups), "s", len(setups), "median round's fleet bring-up: coordinator + 2 workers serving, workers registered")
	expRows(rep, expWalls, "single-node job campaigns")
	rep.add("alloc_kb_per_exp", ratio(float64(alloc), float64(exps))/1024, "KiB", exps, "TotalAlloc delta / experiments, whole fleet")
	rep.add("peak_rss_mb", peakRSSMiB(), "MiB", 1, "getrusage ru_maxrss")
	rep.info("error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "fraction", rep.attempted, "failed / attempted jobs")
	rep.info("job_p50_ms", median(single), "ms", len(single), "median single-node submit-to-done")
	tl := tail(single)
	note := "no tail: fewer than 11 jobs, value is the median"
	if tl.OK {
		note = fmt.Sprintf("p%.2f, rank %d of %d", tl.Percentile, tl.Rank, tl.N)
	}
	rep.info("job_tail_ms", tl.Value, "ms", len(single), note)
	rep.info("sharded_job_p50_ms", median(sharded), "ms", len(sharded), "median 2-shard submit-to-done")
	hostRows(rep, slows, ratio(float64(exps), rawBusy), median(rawWalls))
	return rep, nil
}

// daemonRows adds the client, server and coordinator metrics of the
// traced job rounds. They exist only on this workload, so the JSON result
// leaves them out.
func daemonRows(rep *report, rounds []jobRound) {
	var submit, queue, run, lag, twin, journal []float64
	var timings []shardTiming
	for _, jr := range rounds {
		timings = append(timings, jr.timings...)
		twin = append(twin, ms(jr.twin))
		for _, j := range jr.jobs {
			if j.err != nil || j.sharded {
				continue
			}
			submit = append(submit, ms(j.submit))
			queue = append(queue, ms(j.started.Sub(j.created)))
			run = append(run, ms(j.finished.Sub(j.started)))
			lag = append(lag, ms(j.doneLag))
			journal = append(journal, ratio(float64(j.journalBytes), float64(j.exps)))
		}
	}
	var dispatch, tailMS, skew []float64
	for _, st := range timings {
		dispatch = append(dispatch, ms(st.dispatch))
		tailMS = append(tailMS, ms(st.tail))
		skew = append(skew, st.skew)
	}
	rep.info("client.submit_ms", median(submit), "ms", len(submit), "median client.Submit, single-node jobs")
	rep.info("server.queue_wait_ms", median(queue), "ms", len(queue), "median Started - Created")
	rep.info("server.run_ms", median(run), "ms", len(run), "median Finished - Started")
	rep.info("client.done_lag_ms", median(lag), "ms", len(lag), "median Finished -> client.Tail returns")
	rep.info("server.overhead_ms", median(run)-median(twin), "ms", len(twin), "server.run_ms - in-process Prepare+RunStudy of the same spec")
	rep.info("server.journal_bytes_per_exp", median(journal), "B", len(journal), "coordinator journal size / experiments")
	rep.info("coordinator.dispatch_ms", median(dispatch), "ms", len(dispatch), "sharded Started -> last shard Created")
	rep.info("coordinator.tail_ms", median(tailMS), "ms", len(tailMS), "last shard Finished -> sharded Finished")
	rep.info("coordinator.shard_skew", median(skew), "ratio", len(skew), "max / min shard run time")
}
