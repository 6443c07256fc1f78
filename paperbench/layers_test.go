package main

import (
	"testing"

	"vulfi/internal/campaign"
	"vulfi/internal/vm"
)

// TestLayerBuildMatchesPrepare checks, for every matrix-scan cell, that
// the traced run's layer-by-layer build does the same work as
// campaign.Prepare: same lane sites, same instrumented IR size, same VM
// coverage.
func TestLayerBuildMatchesPrepare(t *testing.T) {
	w, err := workloadByName("matrix-scan")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range w.cells {
		cfg := c.config(1)
		b, err := buildLayers(cfg, &tracer{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p, err := campaign.Prepare(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := len(b.inst.LaneSites), len(p.Inst.LaneSites); got != want {
			t.Errorf("%s: %d lane sites, Prepare has %d", c.name, got, want)
		}
		if got, want := b.instrumented, countInstrs(p.Res.Module); got != want {
			t.Errorf("%s: %d IR instructions, Prepare has %d", c.name, got, want)
		}
		prog := vm.Compile(p.Res.Module)
		if b.vmCompiled != prog.NumCompiled() || b.definedFuncs != definedFuncs(p.Res.Module) {
			t.Errorf("%s: vm coverage %d/%d, Prepare %d/%d", c.name,
				b.vmCompiled, b.definedFuncs, prog.NumCompiled(), definedFuncs(p.Res.Module))
		}
		if b.codegenInstrs+b.detectAdded > b.instrumented {
			t.Errorf("%s: instrumentation shrank the module", c.name)
		}
		if cfg.Detectors && b.detectAdded <= 0 {
			t.Errorf("%s: detector passes added no instructions", c.name)
		}
	}
}
