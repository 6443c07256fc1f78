package main

import (
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// smallCells are two cheap cells covering both ISAs, a detector cell and
// the crash/trap path, for live VM-versus-tree comparisons.
func smallCells() []campaign.Config {
	return []campaign.Config{
		{Benchmark: benchmarks.VectorCopy, ISA: isa.AVX, Category: passes.Address,
			Scale: benchmarks.ScaleTest, Campaigns: 2, Experiments: 10, Seed: 3, Workers: 2},
		{Benchmark: benchmarks.ByName("DotProduct"), ISA: isa.SSE, Category: passes.Control,
			Scale: benchmarks.ScaleTest, Campaigns: 2, Experiments: 10, Seed: 5, Workers: 2,
			Detectors: true, BroadcastDetector: true},
	}
}

// TestVMMatchesTreeLive checks the digest's premise: the VM backend the
// workloads run and the tree-walking oracle produce identical digests.
func TestVMMatchesTreeLive(t *testing.T) {
	for _, cfg := range smallCells() {
		digests := map[string]string{}
		for _, backend := range []string{"tree", "vm"} {
			cfg.Backend = backend
			d, err := runCellDigest(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg, backend, err)
			}
			digests[backend] = d
		}
		if digests["tree"] != digests["vm"] {
			t.Errorf("%s: vm digest %s, tree digest %s", cfg, digests["vm"], digests["tree"])
		}
	}
}

func TestDigestCoversOutcomesNotWallTime(t *testing.T) {
	base := func() []*campaign.ExperimentResult {
		return []*campaign.ExperimentResult{
			{Outcome: campaign.OutcomeSDC, DynSites: 9, GoldenDynInstrs: 100},
			{Outcome: campaign.OutcomeCrash, Hang: true, Trap: &interp.Trap{Msg: "budget"}},
		}
	}
	want, err := cellDigest(4, 16, base())
	if err != nil {
		t.Fatal(err)
	}
	rs := base()
	rs[0].Wall, rs[1].FaultyWall, rs[0].InputLabel = 12345, 678, "n=7"
	if got, _ := cellDigest(4, 16, rs); got != want {
		t.Errorf("wall time or label changed the digest")
	}
	for name, mutate := range map[string]func([]*campaign.ExperimentResult){
		"outcome":  func(rs []*campaign.ExperimentResult) { rs[0].Outcome = campaign.OutcomeBenign },
		"record":   func(rs []*campaign.ExperimentResult) { rs[0].Record.Bit = 3 },
		"dynsites": func(rs []*campaign.ExperimentResult) { rs[0].DynSites++ },
		"golden":   func(rs []*campaign.ExperimentResult) { rs[0].GoldenDynInstrs++ },
		"detected": func(rs []*campaign.ExperimentResult) { rs[1].Detected = true },
		"hang":     func(rs []*campaign.ExperimentResult) { rs[1].Hang = false },
		"trap":     func(rs []*campaign.ExperimentResult) { rs[1].Trap.Msg = "oob" },
		"order":    func(rs []*campaign.ExperimentResult) { rs[0], rs[1] = rs[1], rs[0] },
	} {
		rs := base()
		mutate(rs)
		if got, _ := cellDigest(4, 16, rs); got == want {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
	if got, _ := cellDigest(4, 17, base()); got == want {
		t.Errorf("lane site count not digested")
	}
	if _, err := cellDigest(4, 16, []*campaign.ExperimentResult{nil}); err == nil {
		t.Errorf("missing result not reported")
	}
}

// TestReferenceTableComplete checks that every cell of every workload has
// a committed digest for every reference seed, so no run can land on an
// unchecked cell.
func TestReferenceTableComplete(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if len(refs[w.name]) != refSeeds {
			t.Fatalf("%s: %d reference seeds, want %d", w.name, len(refs[w.name]), refSeeds)
		}
		for i, tab := range refs[w.name] {
			for _, c := range w.cells {
				if _, ok := tab[c.name]; !ok {
					t.Errorf("%s: no digest for %s at seed %d", w.name, c.name, refSeed(i))
				}
			}
			if len(tab) != len(w.cells) {
				t.Errorf("%s seed %d: %d digests for %d cells", w.name, refSeed(i), len(tab), len(w.cells))
			}
		}
	}
}

func TestRefIndexWraps(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		round int
		want  int
	}{{0, 0, 0}, {1, 0, 1}, {7, 1, 0}, {-1, 0, refSeeds - 1}, {1 << 40, 3, int((1<<40 + 3) % refSeeds)}} {
		if got := refIndex(c.seed, c.round); got != c.want {
			t.Errorf("refIndex(%d, %d) = %d, want %d", c.seed, c.round, got, c.want)
		}
	}
}
