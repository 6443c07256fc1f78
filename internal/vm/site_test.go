package vm

import (
	"fmt"
	"strings"
	"testing"

	"vulfi/internal/core"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
	"vulfi/internal/telemetry"
)

// The tests in this file pin vSite, the bulk path for instrumented
// fault-site clusters, against the tree-walker: every run below executes
// under both backends with the injection runtime attached, and every
// observable — result, trap provenance, DynInstrs/DynVector, memory,
// the plan's dynamic-site count and injection record, the interpreter's
// site-visit counter, per-site visits, heartbeats and profile counts —
// must agree.

// siteKernel builds a masked vector loop on the given ISA:
//
//	for i := 0; i < iters; i++ {
//		acc = acc*3 + <1, 2, ..., Vl>   (an unmasked vector site)
//		maskstore(p, mask, acc)       (a masked vector site)
//	}
//
// plus the scalar sites of the loop control. p and mask are parameters,
// so one module serves every mask.
func siteKernel(target *isa.ISA) *ir.Module {
	vl := target.Lanes(ir.I32)
	vty := ir.Vec(ir.I32, vl)
	mod := ir.NewModule("sites")
	store := ir.NewDecl(target.MaskStoreName(ir.I32), ir.Void, ir.Ptr(ir.I32), vty, vty)
	mod.AddFunc(store)
	f := ir.NewFunc("main", ir.Void, []*ir.Type{ir.Ptr(ir.I32), vty, ir.I32},
		[]string{"p", "mask", "iters"})
	mod.AddFunc(f)
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	ir.NewBuilder(entry).Br(loop)

	step := make([]uint64, vl)
	for l := range step {
		step[l] = uint64(l + 1)
	}
	b := ir.NewBuilder(loop)
	i := b.Phi(ir.I32, "i")
	acc := b.Phi(vty, "acc")
	tripled := b.Mul(acc, ir.ConstSplat(vl, ir.ConstInt(ir.I32, 3)), "tripled")
	accN := b.Add(tripled, ir.ConstVec(vty, step), "accn")
	b.Call(store, "", f.Params[0], f.Params[1], accN)
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	c := b.ICmp(ir.IntSLT, iN, f.Params[2], "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, iN, loop)
	ir.AddIncoming(acc, ir.ConstZero(vty), entry)
	ir.AddIncoming(acc, accN, loop)
	ir.NewBuilder(exit).Ret(nil)
	return mod
}

// instrumentAll instruments every site of mod in the default mode.
func instrumentAll(t *testing.T, mod *ir.Module) *core.Instrumentation {
	t.Helper()
	inst, err := core.Instrument(mod, core.EnumerateSites(mod, nil))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// instrumentAblation instruments the pure-data sites of mod (the two
// vector sites of siteKernel) under an ablation mode.
func instrumentAblation(t *testing.T, mod *ir.Module, wholeRegister, maskOblivious bool) *core.Instrumentation {
	t.Helper()
	inst := &core.Instrumentation{}
	pass := &core.InstrumentPass{Category: passes.PureData,
		WholeRegister: wholeRegister, MaskOblivious: maskOblivious, Out: inst}
	if err := pass.Run(mod); err != nil {
		t.Fatal(err)
	}
	return inst
}

// maskValue builds a mask argument from per-lane i32 payloads.
func maskValue(vl int, lanes []int64) interp.Value {
	v := interp.Zero(ir.Vec(ir.I32, vl))
	for l := range v.Bits {
		v.Bits[l] = ir.TruncateToWidth(uint64(lanes[l%len(lanes)]), 32)
	}
	return v
}

// siteCfg is one execution of siteKernel.
type siteCfg struct {
	iters  int64
	mask   interp.Value
	budget uint64
	plan   core.Plan // copied per run
	prof   bool      // attach an opCounter
	fused  bool      // the opCounter implements interp.FusedProfiler
	rec    bool      // attach a capRecorder
}

// siteOutcome is everything observable about one siteKernel execution.
type siteOutcome struct {
	runOutcome
	mem      string
	sites    uint64
	counted  uint64 // the interp.site_visits counter
	injected bool
	record   core.InjectionRecord
	visits   string
	beats    string
	ops      string
	opTotal  uint64
	retired  []string
	bulk     int // site clusters the profiler saw retired in one group
}

func runSite(t *testing.T, mod *ir.Module, prog *Program, cfg siteCfg) siteOutcome {
	t.Helper()
	it, err := interp.New(mod, interp.Options{Budget: cfg.budget})
	if err != nil {
		t.Fatal(err)
	}
	isa.Bind(it)
	if prog != nil {
		Attach(it, prog)
	}
	plan := cfg.plan
	if plan.Visits != nil {
		plan.Visits = make([]uint64, len(cfg.plan.Visits))
	}
	core.AttachRuntime(it, &plan)
	metrics := interp.NewMetrics(telemetry.NewRegistry())
	it.SetMetrics(metrics)
	var beats []string
	it.SetHeartbeat(func(dyn uint64) { beats = append(beats, fmt.Sprint(dyn)) })
	var ops *opCounter
	if cfg.prof {
		ops = &opCounter{}
		if cfg.fused {
			it.SetProfiler((*fusedOpCounter)(ops))
		} else {
			it.SetProfiler(ops)
		}
	}
	var rec capRecorder
	if cfg.rec {
		it.SetRecorder(&rec)
	}
	vl := cfg.mask.Lanes()
	p, tr := it.Mem.Alloc(uint64(4 * vl))
	if tr != nil {
		t.Fatal(tr)
	}
	_, trap := it.Run("main", interp.PtrValue(ir.Ptr(ir.I32), p), cfg.mask,
		interp.IntValue(ir.I32, cfg.iters))
	mem, tr := it.Mem.ReadBytes(p, uint64(4*vl))
	if tr != nil {
		t.Fatal(tr)
	}
	out := siteOutcome{
		runOutcome: runOutcome{trap: trap, dyn: it.DynInstrs, vec: it.DynVector},
		mem:        fmt.Sprintf("%x", mem),
		sites:      plan.DynSites, counted: metrics.SiteVisits.Value(),
		injected: plan.Injected, record: plan.Record,
		visits:  fmt.Sprint(plan.Visits),
		beats:   strings.Join(beats, ","),
		retired: rec.events,
	}
	if ops != nil {
		out.ops = fmt.Sprint(ops.n)
		for _, n := range ops.n {
			out.opTotal += n
		}
		out.bulk = ops.bulk
	}
	return out
}

// siteDiff runs cfg under both backends, asserts every observable is
// identical and returns the VM's outcome.
func siteDiff(t *testing.T, mod *ir.Module, prog *Program, cfg siteCfg) siteOutcome {
	t.Helper()
	tree := runSite(t, mod, nil, cfg)
	vm := runSite(t, mod, prog, cfg)
	assertSameOutcome(t, tree.runOutcome, vm.runOutcome)
	for _, d := range []struct{ what, tree, vm string }{
		{"memory", tree.mem, vm.mem},
		{"DynSites", fmt.Sprint(tree.sites), fmt.Sprint(vm.sites)},
		{"site visits", fmt.Sprint(tree.counted), fmt.Sprint(vm.counted)},
		{"injection", fmt.Sprint(tree.injected, tree.record), fmt.Sprint(vm.injected, vm.record)},
		{"visits", tree.visits, vm.visits},
		{"heartbeats", tree.beats, vm.beats},
		{"profile", tree.ops, vm.ops},
		{"recorder", strings.Join(tree.retired, "\n"), strings.Join(vm.retired, "\n")},
	} {
		if d.tree != d.vm {
			t.Fatalf("%s differs (target %d, bit seed %d):\ntree: %s\nvm:   %s",
				d.what, cfg.plan.TargetDyn, cfg.plan.BitSeed, d.tree, d.vm)
		}
	}
	if cfg.prof && (tree.opTotal != tree.dyn || vm.opTotal != vm.dyn) {
		t.Fatalf("profile totals tree %d / vm %d, DynInstrs %d", tree.opTotal, vm.opTotal, vm.dyn)
	}
	return vm
}

// opCounter is a profiler counting accounted instructions per opcode;
// as a fusedOpCounter it also understands fused groups, and counts the
// groups that are whole site clusters.
type opCounter struct {
	n    [ir.NumOps]uint64
	bulk int
}

func (c *opCounter) Account(in *ir.Instr) { c.n[in.Op]++ }

type fusedOpCounter opCounter

func (c *fusedOpCounter) Account(in *ir.Instr) { c.n[in.Op]++ }

func (c *fusedOpCounter) AccountFused(ins []*ir.Instr) {
	for _, in := range ins {
		c.n[in.Op]++
	}
	if matchSite(ins) == len(ins) {
		c.bulk++
	}
}

// sweepTargets injects at every dynamic site of a golden run (and one
// past the last) with the bit seeds given, under both backends.
func sweepTargets(t *testing.T, mod *ir.Module, prog *Program, cfg siteCfg, seeds []uint64) (golden siteOutcome, records []core.InjectionRecord) {
	t.Helper()
	cfg.plan = core.Plan{Mode: core.CountOnly}
	golden = siteDiff(t, mod, prog, cfg)
	for target := uint64(1); target <= golden.sites+1; target++ {
		for _, seed := range seeds {
			cfg.plan = core.Plan{Mode: core.InjectOnce, TargetDyn: target, BitSeed: seed}
			out := siteDiff(t, mod, prog, cfg)
			if out.injected {
				records = append(records, out.record)
			}
		}
	}
	return golden, records
}

var siteISAs = []*isa.ISA{isa.SSE, isa.AVX}

// TestSiteMasks: all-on, all-off and partial masks, including payloads
// whose only set bit is the sign bit and payloads with every bit but the
// sign set — a lane is live exactly when icmp slt extmask, 0 holds. Every
// dynamic site of each golden run is then injected, which puts the
// target on each cluster's first and last live lane.
func TestSiteMasks(t *testing.T) {
	masks := map[string][]int64{
		"all-on":  {-1},
		"all-off": {0},
		"partial": {-1, 0, -0x80000000, 0x7fffffff, 1, -2, 0, -1},
	}
	for _, target := range siteISAs {
		for name, lanes := range masks {
			t.Run(target.Name+"/"+name, func(t *testing.T) {
				mod := siteKernel(target)
				inst := instrumentAll(t, mod)
				prog := Compile(mod)
				if got := prog.Fused("site"); got != len(inst.Sites) {
					t.Fatalf("%d site clusters lowered, want %d", got, len(inst.Sites))
				}
				cfg := siteCfg{iters: 3, mask: maskValue(target.Lanes(ir.I32), lanes), budget: 20_000}
				golden, records := sweepTargets(t, mod, prog, cfg, []uint64{0, 31})
				if golden.trap != nil {
					t.Fatalf("golden run trapped: %v", golden.trap)
				}
				if uint64(len(records)) != 2*golden.sites {
					t.Fatalf("%d injections over %d dynamic sites x 2 bits", len(records), golden.sites)
				}
				if name != "all-on" {
					return
				}
				// With every lane live, some targets land on the first and
				// the last lane of a vector site's cluster.
				hit := map[int]bool{}
				for _, r := range records {
					if ls := inst.LaneSites[r.LaneSiteID]; ls.Site.Value().Type().IsVector() {
						hit[ls.Lane] = true
					}
				}
				if !hit[0] || !hit[target.Lanes(ir.I32)-1] {
					t.Fatalf("targets hit lanes %v; want lanes 0 and %d", hit, target.Lanes(ir.I32)-1)
				}
			})
		}
	}
}

// TestSiteBudget puts every budget-check boundary of a long run through
// both backends: the heartbeat sequence (one beat per check) must match,
// and a budget trap at each of the first boundaries must be stamped at
// the same instruction — at least one of them inside a site cluster,
// where vSite must hand over to the per-instruction path.
func TestSiteBudget(t *testing.T) {
	for _, target := range siteISAs {
		t.Run(target.Name, func(t *testing.T) {
			mod := siteKernel(target)
			instrumentAll(t, mod)
			prog := Compile(mod)
			cfg := siteCfg{iters: 200, mask: maskValue(target.Lanes(ir.I32), []int64{-1, 0}),
				plan: core.Plan{Mode: core.CountOnly}}
			full := siteDiff(t, mod, prog, cfg)
			if full.trap != nil || full.dyn < 8*1024 {
				t.Fatalf("full run: trap %v after %d instructions; want none after ≥ %d",
					full.trap, full.dyn, 8*1024)
			}
			inCluster := 0
			for k := uint64(1); k*1024 <= full.dyn; k++ {
				cfg.budget = k*1024 - 1
				out := siteDiff(t, mod, prog, cfg)
				if out.trap == nil || out.trap.Kind != interp.TrapBudget {
					t.Fatalf("budget %d: want a budget trap, got %v", cfg.budget, out.trap)
				}
				if name := strings.TrimPrefix(strings.Fields(out.trap.Instr)[0], "%"); strings.HasPrefix(name, "ext") ||
					strings.HasPrefix(name, "act") || strings.HasPrefix(name, "inj") || strings.HasPrefix(name, "ins") {
					inCluster++
				}
			}
			if inCluster == 0 {
				t.Fatal("no budget trap landed inside a site cluster")
			}
		})
	}
}

// TestSiteAblations covers the two ablation modes: whole-register sites
// (one call per vector value) and mask-oblivious sites (every lane live
// whatever the mask says).
func TestSiteAblations(t *testing.T) {
	modes := []struct {
		name                         string
		wholeRegister, maskOblivious bool
	}{
		{"whole-register", true, false},
		{"mask-oblivious", false, true},
	}
	for _, target := range siteISAs {
		for _, mode := range modes {
			t.Run(target.Name+"/"+mode.name, func(t *testing.T) {
				mod := siteKernel(target)
				inst := instrumentAblation(t, mod, mode.wholeRegister, mode.maskOblivious)
				prog := Compile(mod)
				if got := prog.Fused("site"); got != len(inst.Sites) || got == 0 {
					t.Fatalf("%d site clusters lowered, want %d", got, len(inst.Sites))
				}
				cfg := siteCfg{iters: 3, mask: maskValue(target.Lanes(ir.I32), []int64{-1, 0, 0}), budget: 20_000}
				golden, _ := sweepTargets(t, mod, prog, cfg, []uint64{0, 1<<24 | 31, 5<<24 | 7})
				if golden.sites == 0 {
					t.Fatal("golden run visited no sites")
				}
			})
		}
	}
}

// TestSiteVisits: per-lane-site activation counting (atlas profiling)
// must see every live visit under the VM too.
func TestSiteVisits(t *testing.T) {
	for _, target := range siteISAs {
		mod := siteKernel(target)
		inst := instrumentAll(t, mod)
		cfg := siteCfg{iters: 5, mask: maskValue(target.Lanes(ir.I32), []int64{-1, 0, -1}),
			plan: core.Plan{Mode: core.CountOnly, Visits: make([]uint64, len(inst.LaneSites))}}
		out := siteDiff(t, mod, Compile(mod), cfg)
		if out.sites == 0 || out.visits == fmt.Sprint(make([]uint64, len(inst.LaneSites))) {
			t.Fatalf("%s: no visits counted (%d dynamic sites)", target.Name, out.sites)
		}
	}
}

// TestSiteProfiler: with a profiler attached the per-opcode counts equal
// the tree-walker's and total DynInstrs. A fused-group profiler sees
// whole clusters retired in bulk; a plain one keeps every cluster on
// the per-instruction path, as does a recorder.
func TestSiteProfiler(t *testing.T) {
	for _, target := range siteISAs {
		mod := siteKernel(target)
		instrumentAll(t, mod)
		prog := Compile(mod)
		cfg := siteCfg{iters: 40, mask: maskValue(target.Lanes(ir.I32), []int64{-1, 0}),
			plan: core.Plan{Mode: core.CountOnly}, prof: true, fused: true}
		if out := siteDiff(t, mod, prog, cfg); out.bulk == 0 {
			t.Fatalf("%s: fused profiler saw no cluster retired in bulk", target.Name)
		}
		cfg.fused = false
		siteDiff(t, mod, prog, cfg)
		cfg.prof, cfg.rec = false, true
		cfg.plan = core.Plan{Mode: core.InjectOnce, TargetDyn: 9, BitSeed: 3}
		if out := siteDiff(t, mod, prog, cfg); len(out.retired) == 0 || !out.injected {
			t.Fatalf("%s: recorder saw %d events, injected %v", target.Name, len(out.retired), out.injected)
		}
	}
}
