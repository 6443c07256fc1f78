package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/core"
	"vulfi/internal/interp"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// sweepRun is everything observable about one run of a sweep.
type sweepRun struct {
	out      []byte
	trap     *interp.Trap
	dyn      uint64
	vec      uint64
	sites    uint64
	injected bool
	record   core.InjectionRecord
	detected int
}

// runPlanned executes the cell's first experiment input once under plan.
func runPlanned(t *testing.T, p *Prepared, plan *core.Plan, budget uint64) sweepRun {
	t.Helper()
	x, err := p.newInstance(plan, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release(x)
	spec, err := p.Cfg.Benchmark.Setup(x, rand.New(rand.NewSource(p.Cfg.InputSeed(0))), p.Cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	out, tr := p.observe(x, spec)
	return sweepRun{
		out: out, trap: tr, dyn: x.It.DynInstrs, vec: x.It.DynVector, sites: plan.DynSites,
		injected: plan.Injected, record: plan.Record, detected: len(x.It.Detections),
	}
}

func (r sweepRun) String() string {
	return fmt.Sprintf("out=%x trap=%+v dyn=%d vec=%d sites=%d injected=%v record=%v detected=%d",
		r.out, r.trap, r.dyn, r.vec, r.sites, r.injected, r.record, r.detected)
}

// TestSweepEveryDynamicSite injects at every dynamic fault site of
// VectorCopy, DotProduct and VectorSum at test scale, on both ISAs and
// in every category, under both backends, flipping each bit of each
// site's width in turn (a few seconds). Outputs, traps with provenance,
// dynamic counts, detections, injection records and DynSites must all
// be identical: a bit flip on a cluster's first or last lane, or a
// budget trap after a control fault, has to come out the same whichever
// backend runs it.
func TestSweepEveryDynamicSite(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.VectorCopy, benchmarks.DotProduct, benchmarks.VectorSum} {
		for _, target := range isa.All {
			for _, cat := range passes.AllCategories {
				t.Run(b.Name+"/"+target.Name+"/"+cat.String(), func(t *testing.T) {
					cfg := smallCfg(b, cat)
					cfg.ISA = target
					cells := map[string]*Prepared{}
					for _, backend := range []string{"tree", "vm"} {
						c := cfg
						c.Backend = backend
						p, err := Prepare(c)
						if err != nil {
							t.Fatal(err)
						}
						cells[backend] = p
					}
					run := func(plan core.Plan, budget uint64) sweepRun {
						t.Helper()
						tp, vp := plan, plan
						tree := runPlanned(t, cells["tree"], &tp, budget)
						vm := runPlanned(t, cells["vm"], &vp, budget)
						if tree.String() != vm.String() {
							t.Fatalf("target %d, bit seed %d:\ntree: %s\nvm:   %s",
								plan.TargetDyn, plan.BitSeed, tree, vm)
						}
						return vm
					}
					golden := run(core.Plan{Mode: core.CountOnly}, 0)
					if golden.trap != nil || golden.sites == 0 {
						t.Fatalf("golden run: %s", golden)
					}
					budget := golden.dyn*3 + 100_000
					outcomes := map[string]int{}
					for target := uint64(1); target <= golden.sites; target++ {
						// The first run reveals the site's width; bit seeds
						// below it select each bit once.
						for bit, width := uint64(0), uint64(1); bit < width; bit++ {
							r := run(core.Plan{Mode: core.InjectOnce, TargetDyn: target, BitSeed: bit}, budget)
							if !r.injected {
								t.Fatalf("target %d of %d: no injection", target, golden.sites)
							}
							width = uint64(r.record.Width)
							switch {
							case r.trap != nil:
								outcomes["crash"]++
							case !bytes.Equal(r.out, golden.out):
								outcomes["sdc"]++
							default:
								outcomes["benign"]++
							}
						}
					}
					t.Logf("%d dynamic sites: %v", golden.sites, outcomes)
				})
			}
		}
	}
}
