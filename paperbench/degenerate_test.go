package main

import (
	"math"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// TestDegenerateCellDefined runs a traced round of the zero-site cell
// (Mandelbrot/AVX/pure-data: every experiment vacuous, no faulty runs, no
// cache) and checks every per-layer metric is finite, including the
// ratios with a zero base.
func TestDegenerateCellDefined(t *testing.T) {
	scan, err := workloadByName("matrix-scan")
	if err != nil {
		t.Fatal(err)
	}
	var w workload
	for _, c := range scan.cells {
		if c.cfg.Benchmark == benchmarks.ByName("Mandelbrot") && c.cfg.ISA == isa.AVX && c.cfg.Category == passes.PureData {
			w = workload{name: "degenerate", cells: []cell{c}}
		}
	}
	if w.cells == nil {
		t.Fatal("matrix-scan lacks Mandelbrot/AVX/pure-data")
	}
	cfg := w.cells[0].config(refSeed(0))
	cfg.Backend = "tree"
	ref, err := runCellDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := references{w.name: {{w.cells[0].name: ref}}}
	tr := &tracer{}
	rs := localRound(&w, refs, 0, tr)
	if rs.failed != 0 {
		t.Fatalf("round failed: %v", rs.errs)
	}
	if rs.layers.laneSites != 0 || rs.layers.vacuous != rs.layers.exps {
		t.Fatalf("cell is not degenerate: %d lane sites, %d of %d vacuous",
			rs.layers.laneSites, rs.layers.vacuous, rs.layers.exps)
	}
	for name, lr := range map[string]*layerRound{"zero-site round": rs.layers, "empty round": {}} {
		rep := &report{}
		layerRows(rep, []*layerRound{lr}, 0)
		for _, r := range rep.rows {
			if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
				t.Errorf("%s: %s = %v", name, r.name, r.value)
			}
		}
		want := map[string]float64{"campaign.vacuous_frac": 1, "campaign.cache_hit_ratio": 0}
		if lr.exps == 0 {
			want["campaign.vacuous_frac"] = 0
		}
		for _, r := range rep.rows {
			if v, ok := want[r.name]; ok && r.value != v {
				t.Errorf("%s: %s = %v, want %v", name, r.name, r.value, v)
			}
		}
	}
	none := &report{}
	layerRows(none, nil, 0)
	for _, r := range none.rows {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			t.Errorf("no rounds: %s = %v", r.name, r.value)
		}
	}
}
