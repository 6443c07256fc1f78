package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// This file is the backend-equivalence contract: the vm backend is only
// allowed to exist because every observable of a study — outcomes,
// dynamic counts, trap provenance, injection records, exported JSON,
// explanations, profiles, resume — is byte-identical to the reference
// tree-walker. The exported study JSON deliberately carries no backend
// field, so byte-equality here is the proof that the knob is purely a
// throughput choice.

// TestBackendDifferentialAllBenchmarks runs a small study of every
// benchmark on both ISAs under both backends and requires the scrubbed
// study exports to be byte-identical. Control faults make the faulty
// runs take wrong branches, so this sweep also exercises traps, hangs
// and the budget guard under the vm backend.
func TestBackendDifferentialAllBenchmarks(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, target := range isa.All {
			b, target := b, target
			t.Run(b.Name+"/"+target.Name, func(t *testing.T) {
				cfg := smallCfg(b, passes.Control)
				cfg.ISA = target
				cfg.Experiments = 6
				cfg.Campaigns = 2

				vmCfg := cfg
				vmCfg.Backend = "vm"
				p, err := Prepare(vmCfg)
				if err != nil {
					t.Fatal(err)
				}
				if p.vmProg == nil || p.vmProg.NumCompiled() == 0 {
					t.Fatal("vm backend prepared without a compiled program")
				}
				vmSR, err := p.RunStudy(context.Background())
				if err != nil {
					t.Fatal(err)
				}

				treeCfg := cfg
				treeCfg.Backend = "tree"
				treeSR, err := RunStudy(context.Background(), treeCfg)
				if err != nil {
					t.Fatal(err)
				}

				got, want := studyBytes(t, vmSR), studyBytes(t, treeSR)
				if !bytes.Equal(got, want) {
					t.Fatalf("vm study diverged from tree-walker:\nvm:   %s\ntree: %s",
						got, want)
				}
			})
		}
	}
}

// TestBackendPerExperimentEquality compares individual experiments
// field by field — outcome, detection, hang, the full trap provenance
// (kind, message, function, block, instruction, dynamic index), the
// injection record and the golden counters — across backends, on both a
// data and a control cell.
func TestBackendPerExperimentEquality(t *testing.T) {
	cells := []struct {
		name string
		cat  passes.Category
	}{
		{"pure-data", passes.PureData},
		{"control", passes.Control},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := smallCfg(benchmarks.Blackscholes, cell.cat)

			treeCfg := cfg
			treeCfg.Backend = "tree"
			pt, err := Prepare(treeCfg)
			if err != nil {
				t.Fatal(err)
			}
			vmCfg := cfg
			vmCfg.Backend = "vm"
			pv, err := Prepare(vmCfg)
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < cfg.Experiments; i++ {
				rt, err := pt.RunExperimentAt(context.Background(), i)
				if err != nil {
					t.Fatal(err)
				}
				rv, err := pv.RunExperimentAt(context.Background(), i)
				if err != nil {
					t.Fatal(err)
				}
				if rt.Outcome != rv.Outcome || rt.Detected != rv.Detected || rt.Hang != rv.Hang {
					t.Fatalf("experiment %d: tree (%v det=%v hang=%v) vs vm (%v det=%v hang=%v)",
						i, rt.Outcome, rt.Detected, rt.Hang, rv.Outcome, rv.Detected, rv.Hang)
				}
				if (rt.Trap == nil) != (rv.Trap == nil) {
					t.Fatalf("experiment %d: trap presence differs: tree %v, vm %v",
						i, rt.Trap, rv.Trap)
				}
				if rt.Trap != nil && *rt.Trap != *rv.Trap {
					t.Fatalf("experiment %d: trap provenance differs:\ntree: %+v\nvm:   %+v",
						i, *rt.Trap, *rv.Trap)
				}
				if rt.Record != rv.Record {
					t.Fatalf("experiment %d: injection record differs: tree %v, vm %v",
						i, rt.Record, rv.Record)
				}
				if rt.DynSites != rv.DynSites || rt.GoldenDynInstrs != rv.GoldenDynInstrs {
					t.Fatalf("experiment %d: golden counters differ: tree (%d sites, %d dyn) vm (%d sites, %d dyn)",
						i, rt.DynSites, rt.GoldenDynInstrs, rv.DynSites, rv.GoldenDynInstrs)
				}
				if rt.InputLabel != rv.InputLabel {
					t.Fatalf("experiment %d: input label differs: %q vs %q",
						i, rt.InputLabel, rv.InputLabel)
				}
			}
		})
	}
}

// TestBackendResumeByteIdentity: checkpointing a vm-backend study and
// resuming it (replaying the first half through Cfg.Completed, as the
// vulfid journal does) must reproduce the uninterrupted vm study — and
// the uninterrupted tree study — byte-for-byte.
func TestBackendResumeByteIdentity(t *testing.T) {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Inputs = 2
	cfg.Backend = "vm"

	var mu sync.Mutex
	checkpoints := map[int]*ExperimentResult{}
	icfg := cfg
	icfg.OnResult = func(i int, _ int64, r *ExperimentResult) {
		mu.Lock()
		defer mu.Unlock()
		checkpoints[i] = r
	}
	full, err := RunStudy(context.Background(), icfg)
	if err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Completed = map[int]*ExperimentResult{}
	total := cfg.Campaigns * cfg.Experiments
	for i := 0; i < total/2; i++ {
		rcfg.Completed[i] = checkpoints[i]
	}
	resumed, err := RunStudy(context.Background(), rcfg)
	if err != nil {
		t.Fatal(err)
	}

	treeCfg := cfg
	treeCfg.Backend = "tree"
	tree, err := RunStudy(context.Background(), treeCfg)
	if err != nil {
		t.Fatal(err)
	}

	fullJSON := studyBytes(t, full)
	if got := studyBytes(t, resumed); !bytes.Equal(got, fullJSON) {
		t.Fatalf("resumed vm study diverged from uninterrupted vm study:\nresumed: %s\nfull:    %s",
			got, fullJSON)
	}
	if want := studyBytes(t, tree); !bytes.Equal(fullJSON, want) {
		t.Fatalf("vm study diverged from tree-walker:\nvm:   %s\ntree: %s",
			fullJSON, want)
	}
}

// TestBackendExplainEquivalence: -explain runs with tracing on, so the
// vm backend must feed the divergence analyzer the same retirement
// stream — the whole explanation (fault, divergence chain, outcome)
// must round-trip identically.
func TestBackendExplainEquivalence(t *testing.T) {
	cfg := smallCfg(benchmarks.VectorCopy, passes.PureData)
	cfg.Trace = true

	for _, index := range []int{0, 3, 7} {
		treeCfg := cfg
		treeCfg.Backend = "tree"
		rt, err := ExplainExperiment(context.Background(), treeCfg, index)
		if err != nil {
			t.Fatal(err)
		}
		vmCfg := cfg
		vmCfg.Backend = "vm"
		rv, err := ExplainExperiment(context.Background(), vmCfg, index)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Outcome != rv.Outcome || rt.Detected != rv.Detected {
			t.Fatalf("explain %d: outcome differs: tree (%v det=%v) vm (%v det=%v)",
				index, rt.Outcome, rt.Detected, rv.Outcome, rv.Detected)
		}
		tj, err := json.Marshal(rt.Explanation)
		if err != nil {
			t.Fatal(err)
		}
		vj, err := json.Marshal(rv.Explanation)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tj, vj) {
			t.Fatalf("explain %d: explanation differs:\ntree: %s\nvm:   %s", index, tj, vj)
		}
	}
}

// TestBackendProfileCountsEqual: with profiling on, the vm backend's
// fused superinstructions report constituents through AccountFused, so
// the count side of the profile — opcode table, digram miner, sites,
// phase dyn totals — must be identical to the tree-walker's. Only wall
// time may differ.
func TestBackendProfileCountsEqual(t *testing.T) {
	run := func(backend string) []byte {
		cfg := profCfg()
		cfg.Backend = backend
		sr, err := RunStudy(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sr.HotProfile == nil {
			t.Fatal("Profile on but HotProfile nil")
		}
		stripProfileTimes(sr.HotProfile)
		j, err := json.Marshal(sr.HotProfile)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	tree, vm := run("tree"), run("vm")
	if !bytes.Equal(tree, vm) {
		t.Fatalf("profile counts diverge across backends:\ntree: %s\nvm:   %s", tree, vm)
	}
}

// TestBackendSiteClustersLowered: on every benchmark × ISA × category
// cell, the VM lowers every fault site's instrumentation cluster to one
// vSite — one per vector site, whose Vl lane chains form one cluster,
// and one per scalar site. A cluster the matcher misses would still run
// correctly, lane by lane, so only this count shows it.
func TestBackendSiteClustersLowered(t *testing.T) {
	var vector, scalar int
	for _, b := range benchmarks.All() {
		for _, target := range isa.All {
			for _, cat := range passes.AllCategories {
				cfg := smallCfg(b, cat)
				cfg.ISA = target
				cfg.Backend = "vm"
				p, err := Prepare(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var v int
				for _, s := range p.Sites {
					if s.Value().Type().IsVector() {
						v++
					}
				}
				vector += v
				scalar += len(p.Sites) - v
				if got := p.vmProg.Fused("site"); got != len(p.Sites) {
					t.Errorf("%s/%s/%s: %d site clusters lowered, want %d (%d vector)",
						b.Name, target.Name, cat, got, len(p.Sites), v)
				}
			}
		}
	}
	if vector == 0 || scalar == 0 {
		t.Fatalf("matrix has %d vector and %d scalar sites; want both kinds", vector, scalar)
	}
	t.Logf("%d vector and %d scalar site clusters lowered", vector, scalar)
}
