package vulfi_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	vulfi "vulfi"
	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
	"vulfi/internal/lang"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// Each benchmark below regenerates the data behind one table or figure of
// the paper; cmd/experiments prints the full formatted versions.

// BenchmarkTable1DynamicCounts drives one clean (uninstrumented)
// execution per iteration for every Table I benchmark × ISA and reports
// the dynamic instruction count — the Table I metric.
func BenchmarkTable1DynamicCounts(b *testing.B) {
	for _, bench := range benchmarks.Study() {
		for _, target := range isa.All {
			b.Run(bench.Name+"/"+target.Name, func(b *testing.B) {
				res, err := codegen.CompileSource(bench.Source, target, bench.Name)
				if err != nil {
					b.Fatal(err)
				}
				var dyn float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x, err := exec.NewInstance(res, interp.Options{})
					if err != nil {
						b.Fatal(err)
					}
					spec, err := bench.Setup(x, rand.New(rand.NewSource(int64(i))),
						benchmarks.ScaleDefault)
					if err != nil {
						b.Fatal(err)
					}
					if _, tr := x.CallExport(bench.Entry, spec.Args...); tr != nil {
						b.Fatal(tr)
					}
					dyn += float64(x.It.DynInstrs)
				}
				b.ReportMetric(dyn/float64(b.N), "dyn-instrs/op")
			})
		}
	}
}

// BenchmarkFig10Composition compiles each benchmark and computes the
// scalar/vector fault-site census — the Figure 10 data — reporting the
// vector fraction per category.
func BenchmarkFig10Composition(b *testing.B) {
	for _, target := range isa.All {
		b.Run(target.Name, func(b *testing.B) {
			var vecPct [3]float64
			for i := 0; i < b.N; i++ {
				var agg [3]struct{ vec, tot int }
				for _, bench := range benchmarks.Study() {
					prog, err := lang.Compile(bench.Source)
					if err != nil {
						b.Fatal(err)
					}
					res, err := codegen.Compile(prog, target, bench.Name)
					if err != nil {
						b.Fatal(err)
					}
					for ci, row := range core.Census(core.EnumerateSites(res.Module, nil)) {
						agg[ci].vec += row.VectorSites
						agg[ci].tot += row.Total()
					}
				}
				for ci := range agg {
					if agg[ci].tot > 0 {
						vecPct[ci] = 100 * float64(agg[ci].vec) / float64(agg[ci].tot)
					}
				}
			}
			b.ReportMetric(vecPct[0], "puredata-vec-%")
			b.ReportMetric(vecPct[1], "control-vec-%")
			b.ReportMetric(vecPct[2], "address-vec-%")
		})
	}
}

// BenchmarkFig11Campaign runs paired fault-injection experiments (one per
// iteration) for every benchmark × category on AVX and reports the
// observed SDC/crash percentages — the Figure 11 series.
func BenchmarkFig11Campaign(b *testing.B) {
	for _, bench := range benchmarks.Study() {
		for _, cat := range passes.AllCategories {
			b.Run(fmt.Sprintf("%s/%s", bench.Name, cat), func(b *testing.B) {
				p, err := campaign.Prepare(campaign.Config{
					Benchmark: bench, ISA: isa.AVX, Category: cat,
					Scale: benchmarks.ScaleTest, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				var sdc, crash int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := p.RunExperiment(context.Background(), int64(i))
					if err != nil {
						b.Fatal(err)
					}
					switch r.Outcome {
					case campaign.OutcomeSDC:
						sdc++
					case campaign.OutcomeCrash:
						crash++
					}
				}
				b.ReportMetric(100*float64(sdc)/float64(b.N), "SDC-%")
				b.ReportMetric(100*float64(crash)/float64(b.N), "crash-%")
			})
		}
	}
}

// BenchmarkFig12Detectors runs the §IV-E detector study: experiments on
// the micro-benchmarks with the foreach-invariant detectors inserted,
// reporting SDC and SDC-detection percentages.
func BenchmarkFig12Detectors(b *testing.B) {
	for _, bench := range benchmarks.Micro() {
		for _, cat := range passes.AllCategories {
			b.Run(fmt.Sprintf("%s/%s", bench.Name, cat), func(b *testing.B) {
				p, err := campaign.Prepare(campaign.Config{
					Benchmark: bench, ISA: isa.AVX, Category: cat,
					Scale: benchmarks.ScaleTest, Seed: 2, Detectors: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				var sdc, sdcDetected int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := p.RunExperiment(context.Background(), int64(i))
					if err != nil {
						b.Fatal(err)
					}
					if r.Outcome == campaign.OutcomeSDC {
						sdc++
						if r.Detected {
							sdcDetected++
						}
					}
				}
				b.ReportMetric(100*float64(sdc)/float64(b.N), "SDC-%")
				if sdc > 0 {
					b.ReportMetric(100*float64(sdcDetected)/float64(sdc), "SDC-detect-%")
				}
			})
		}
	}
}

// BenchmarkFig12Overhead measures the detector-block cost the paper's way
// (instrumented run with vs without the detector block): the wall time of
// this benchmark pair is the overhead comparison.
func BenchmarkFig12Overhead(b *testing.B) {
	for _, withDet := range []bool{false, true} {
		name := "base"
		if withDet {
			name = "with-detector"
		}
		b.Run(name, func(b *testing.B) {
			bench := benchmarks.VectorCopy
			res, err := codegen.CompileSource(bench.Source, isa.AVX, bench.Name)
			if err != nil {
				b.Fatal(err)
			}
			pm := &passes.Manager{}
			if withDet {
				pm.Add(&detect.ForeachInvariantPass{})
			}
			inst := &core.Instrumentation{}
			pm.Add(&core.InstrumentPass{Category: passes.Control, Out: inst})
			if err := pm.Run(res.Module); err != nil {
				b.Fatal(err)
			}
			var dyn float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, err := exec.NewInstance(res, interp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				core.AttachRuntime(x.It, &core.Plan{Mode: core.CountOnly})
				detect.AttachRuntime(x.It)
				spec, err := bench.Setup(x, rand.New(rand.NewSource(9)),
					benchmarks.ScaleDefault)
				if err != nil {
					b.Fatal(err)
				}
				if _, tr := x.CallExport(bench.Entry, spec.Args...); tr != nil {
					b.Fatal(tr)
				}
				dyn += float64(x.It.DynInstrs)
			}
			b.ReportMetric(dyn/float64(b.N), "dyn-instrs/op")
		})
	}
}

// BenchmarkAblationSiteGranularity compares the paper's per-lane site
// model against whole-register sites (DESIGN.md ablation a).
func BenchmarkAblationSiteGranularity(b *testing.B) {
	for _, whole := range []bool{false, true} {
		name := "per-lane"
		if whole {
			name = "whole-register"
		}
		b.Run(name, func(b *testing.B) {
			p, err := campaign.Prepare(campaign.Config{
				Benchmark: benchmarks.VectorCopy, ISA: isa.AVX,
				Category: passes.PureData, Scale: benchmarks.ScaleTest,
				Seed: 3, WholeRegisterSites: whole,
			})
			if err != nil {
				b.Fatal(err)
			}
			var sdc int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := p.RunExperiment(context.Background(), int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if r.Outcome == campaign.OutcomeSDC {
					sdc++
				}
			}
			b.ReportMetric(float64(len(p.Inst.LaneSites)), "lane-sites")
			b.ReportMetric(100*float64(sdc)/float64(b.N), "SDC-%")
		})
	}
}

// BenchmarkAblationMaskAccounting compares mask-aware dynamic-site
// accounting against a mask-oblivious injector (DESIGN.md ablation b):
// the oblivious variant sees more dynamic sites at array tails.
func BenchmarkAblationMaskAccounting(b *testing.B) {
	for _, obl := range []bool{false, true} {
		name := "mask-aware"
		if obl {
			name = "mask-oblivious"
		}
		b.Run(name, func(b *testing.B) {
			p, err := campaign.Prepare(campaign.Config{
				Benchmark: benchmarks.VectorCopy, ISA: isa.AVX,
				Category: passes.PureData, Scale: benchmarks.ScaleTest,
				Seed: 4, MaskOblivious: obl,
			})
			if err != nil {
				b.Fatal(err)
			}
			var sites float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := p.RunExperiment(context.Background(), int64(i))
				if err != nil {
					b.Fatal(err)
				}
				sites += float64(r.DynSites)
			}
			b.ReportMetric(sites/float64(b.N), "dyn-sites/op")
		})
	}
}

// BenchmarkCompile measures the full VSPC pipeline (parse, check,
// vectorize, verify) on the largest benchmark source.
func BenchmarkCompile(b *testing.B) {
	src := benchmarks.ConjugateGradient.Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.CompileSource(src, isa.AVX, "cg"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrument measures the VULFI instrumentation rewrite itself.
func BenchmarkInstrument(b *testing.B) {
	prog, err := lang.Compile(benchmarks.ConjugateGradient.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := codegen.Compile(prog, isa.AVX, "cg")
		if err != nil {
			b.Fatal(err)
		}
		sites := core.EnumerateSites(res.Module, nil)
		if _, err := core.Instrument(res.Module, sites); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures raw interpreter throughput on the
// stencil kernel (instructions per second appear as dyn-instrs / ns).
func BenchmarkInterpreter(b *testing.B) {
	bench := benchmarks.Stencil
	res, err := codegen.CompileSource(bench.Source, isa.AVX, bench.Name)
	if err != nil {
		b.Fatal(err)
	}
	var dyn float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := exec.NewInstance(res, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		spec, err := bench.Setup(x, rand.New(rand.NewSource(1)), benchmarks.ScaleDefault)
		if err != nil {
			b.Fatal(err)
		}
		if _, tr := x.CallExport(bench.Entry, spec.Args...); tr != nil {
			b.Fatal(tr)
		}
		dyn += float64(x.It.DynInstrs)
	}
	b.ReportMetric(dyn/float64(b.N), "dyn-instrs/op")
}

// BenchmarkInterpreterTelemetry pairs the stencil kernel with telemetry
// detached vs attached-but-idle. Counters flush as deltas at top-level
// call return, so the attached run's hot loop pays only a nil check —
// compare ns/op between the two sub-benchmarks to see the idle cost.
func BenchmarkInterpreterTelemetry(b *testing.B) {
	bench := benchmarks.Stencil
	res, err := codegen.CompileSource(bench.Source, isa.AVX, bench.Name)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, m *interp.Metrics) {
		var dyn float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x, err := exec.NewInstance(res, interp.Options{})
			if err != nil {
				b.Fatal(err)
			}
			x.It.SetMetrics(m)
			spec, err := bench.Setup(x, rand.New(rand.NewSource(1)), benchmarks.ScaleDefault)
			if err != nil {
				b.Fatal(err)
			}
			if _, tr := x.CallExport(bench.Entry, spec.Args...); tr != nil {
				b.Fatal(tr)
			}
			dyn += float64(x.It.DynInstrs)
		}
		b.ReportMetric(dyn/float64(b.N), "dyn-instrs/op")
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled-idle", func(b *testing.B) {
		run(b, interp.NewMetrics(telemetry.NewRegistry()))
	})
}

// BenchmarkFacadeStudy exercises the public facade end to end (guards
// the exported API against drift).
func BenchmarkFacadeStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := vulfi.NewStudy(
			vulfi.WithBenchmarkName("VectorCopy"),
			vulfi.WithISA(vulfi.AVX),
			vulfi.WithCategory(vulfi.Control),
			vulfi.WithScale(benchmarks.ScaleTest),
			vulfi.WithExperiments(5),
			vulfi.WithCampaigns(1),
			vulfi.WithSeed(int64(i+1)),
		)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := study.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if sr.Totals.Experiments != 5 {
			b.Fatal("unexpected experiment count")
		}
	}
}
