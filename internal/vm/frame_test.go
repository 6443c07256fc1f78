package vm

import (
	"fmt"
	"strings"
	"testing"

	"vulfi/internal/benchmarks"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/passes"
)

// The tests in this file pin the frame's register storage: every
// register owns lane words in its frame, producers write into them, and
// no two registers share mutable storage. A violation shows up as a
// value that changes after it was produced, so each test compares the
// VM with the tree-walker, whose values are never overwritten.

// allocKernel builds a loop that runs n iterations (n a parameter)
// through every producing opcode family the VM lowers: phis, integer
// and float arithmetic, compares, select, casts, broadcasts (insert +
// shuffle), extract, gep+load, gep+store through a global, and a call
// to a defined function that returns a vector.
func allocKernel() *ir.Module {
	mod := ir.NewModule("alloc")
	v4 := ir.Vec(ir.I32, 4)
	g := &ir.Global{Nam: "cells", Elem: ir.I32, Count: 4}
	mod.AddGlobal(g)

	// mix(v, k) = (v ^ splat(k)) + <1, 2, 3, 4>, reading the global.
	mix := ir.NewFunc("mix", v4, []*ir.Type{v4, ir.I32}, []string{"v", "k"})
	mod.AddFunc(mix)
	bm := ir.NewBuilder(mix.NewBlock("entry"))
	cell := bm.Load(bm.GEP(g, ir.ConstInt(ir.I32, 1), "pc"), "cell")
	kk := bm.Add(mix.Params[1], cell, "kk")
	x := bm.Xor(mix.Params[0], bm.Broadcast(kk, 4, "ks"), "x")
	bm.Ret(bm.Add(x, ir.ConstVec(v4, []uint64{1, 2, 3, 4}), "mixed"))

	f := ir.NewFunc("main", ir.I32, []*ir.Type{ir.I32}, []string{"n"})
	mod.AddFunc(f)
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	ir.NewBuilder(entry).Br(loop)
	b := ir.NewBuilder(loop)
	i := b.Phi(ir.I32, "i")
	acc := b.Phi(v4, "acc")
	slot := b.And(i, ir.ConstInt(ir.I32, 3), "slot")
	ld := b.Load(b.GEP(g, slot, "pl"), "ld")
	m := b.Call(mix, "m", acc, ld)
	fl := b.Cast(ir.OpSIToFP, b.ExtractElement(m, ir.ConstInt(ir.I32, 2), "e2"), ir.F32, "fl")
	half := b.FMul(fl, ir.ConstFloat(ir.F32, 0.5), "half")
	back := b.Cast(ir.OpFPToSI, half, ir.I32, "back")
	big := b.ICmp(ir.IntSGT, back, ld, "big")
	pick := b.Select(big, back, ld, "pick")
	b.Store(pick, b.GEP(g, slot, "ps"))
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	c := b.ICmp(ir.IntSLT, iN, f.Params[0], "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, iN, loop)
	ir.AddIncoming(acc, ir.ConstZero(v4), entry)
	ir.AddIncoming(acc, m, loop)
	ir.NewBuilder(exit).Ret(i)
	return mod
}

// TestNoPerInstructionAllocation: with no recorder attached, executing
// compiled code allocates nothing per instruction, so a run's
// allocations do not grow with its trip count. The site kernel adds the
// vSite fast path, the per-lane fallback (at every budget boundary) and
// extern call results.
func TestNoPerInstructionAllocation(t *testing.T) {
	const n = 4096
	t.Run("loop", func(t *testing.T) {
		mod := allocKernel()
		differential(t, mod, interp.Options{}, "main", interp.IntValue(ir.I32, 64))
		it, err := interp.New(mod, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		Attach(it, Compile(mod))
		allocs := func(trips int64) float64 {
			arg := interp.IntValue(ir.I32, trips)
			return testing.AllocsPerRun(5, func() {
				if _, tr := it.Run("main", arg); tr != nil {
					t.Fatal(tr)
				}
			})
		}
		if short, long := allocs(n), allocs(8*n); long > short {
			t.Fatalf("allocations grow with the trip count: %v per run at %d trips, %v at %d",
				short, n, long, 8*n)
		}
	})
	t.Run("sites", func(t *testing.T) {
		mod := siteKernel(isa.AVX)
		instrumentAll(t, mod)
		it, err := interp.New(mod, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		isa.Bind(it)
		Attach(it, Compile(mod))
		plan := &core.Plan{Mode: core.CountOnly}
		core.AttachRuntime(it, plan)
		p, tr := it.Mem.Alloc(32)
		if tr != nil {
			t.Fatal(tr)
		}
		ptr := interp.PtrValue(ir.Ptr(ir.I32), p)
		mask := maskValue(8, []int64{-1, 0, -1, -1})
		allocs := func(trips int64) float64 {
			arg := interp.IntValue(ir.I32, trips)
			return testing.AllocsPerRun(5, func() {
				if _, tr := it.Run("main", ptr, mask, arg); tr != nil {
					t.Fatal(tr)
				}
			})
		}
		if short, long := allocs(n), allocs(8*n); long > short {
			t.Fatalf("allocations grow with the trip count: %v per run at %d trips, %v at %d",
				short, n, long, 8*n)
		}
	})
}

// keepRecorder retains every retired value and formats the stream only
// after the run, so a retained value that later execution overwrites
// shows up as a difference.
type keepRecorder struct {
	ins  []*ir.Instr
	dyns []uint64
	vals []interp.Value
}

func (r *keepRecorder) Retire(in *ir.Instr, dyn uint64, v interp.Value) {
	r.ins = append(r.ins, in)
	r.dyns = append(r.dyns, dyn)
	r.vals = append(r.vals, v)
}

func (r *keepRecorder) String() string {
	var sb strings.Builder
	for i, in := range r.ins {
		vs := "void"
		if r.vals[i].Ty != nil {
			vs = r.vals[i].String()
		}
		fmt.Fprintf(&sb, "%s@%d=%s\n", in.Ident(), r.dyns[i], vs)
	}
	return sb.String()
}

// aliasOutcome is everything observable about one aliasing-case run.
type aliasOutcome struct {
	runOutcome
	sites    uint64
	injected bool
	record   core.InjectionRecord
	retired  string
}

// runAlias runs fn twice on one instance (so a clobbered constant pool
// or a stale frame would show in the second run), with the injection
// runtime bound to a copy of plan and, when rec is set, a keepRecorder.
func runAlias(t *testing.T, mod *ir.Module, prog *Program, plan core.Plan, rec bool,
	fn string, args ...interp.Value) aliasOutcome {
	t.Helper()
	it, err := interp.New(mod, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog != nil {
		Attach(it, prog)
	}
	core.AttachRuntime(it, &plan)
	var kr keepRecorder
	if rec {
		it.SetRecorder(&kr)
	}
	// The results are formatted only after both runs, so a result that
	// still shares the machine's stacks would show the second run's data.
	var rets []interp.Value
	var trap *interp.Trap
	for run := 0; run < 2 && trap == nil; run++ {
		var v interp.Value
		v, trap = it.Run(fn, args...)
		rets = append(rets, v)
	}
	var vals []string
	for _, v := range rets {
		if v.Ty != nil {
			vals = append(vals, v.String())
		}
	}
	return aliasOutcome{
		runOutcome: runOutcome{val: strings.Join(vals, " "), trap: trap,
			dyn: it.DynInstrs, vec: it.DynVector, output: it.Output.String()},
		sites: plan.DynSites, injected: plan.Injected, record: plan.Record,
		retired: kr.String(),
	}
}

// aliasDiff runs one aliasing case under both backends, with and
// without a recorder, and asserts every observable agrees.
func aliasDiff(t *testing.T, mod *ir.Module, plan core.Plan, fn string, args ...interp.Value) aliasOutcome {
	t.Helper()
	prog := Compile(mod)
	if !prog.Compiled(mod.Func(fn)) {
		t.Fatalf("@%s did not compile", fn)
	}
	var out aliasOutcome
	for _, rec := range []bool{false, true} {
		tree := runAlias(t, mod, nil, plan, rec, fn, args...)
		vm := runAlias(t, mod, prog, plan, rec, fn, args...)
		assertSameOutcome(t, tree.runOutcome, vm.runOutcome)
		if tree.sites != vm.sites || tree.injected != vm.injected || tree.record != vm.record {
			t.Fatalf("recorder %v, target %d: sites tree %d/%v/%v, vm %d/%v/%v", rec, plan.TargetDyn,
				tree.sites, tree.injected, tree.record, vm.sites, vm.injected, vm.record)
		}
		if tree.retired != vm.retired {
			t.Fatalf("retired values differ after the run:\ntree:\n%s\nvm:\n%s", tree.retired, vm.retired)
		}
		if !rec {
			out = vm
		}
	}
	return out
}

// siteLoopKernel builds a loop whose phi p takes, on the back edge, the
// result of a hand-built vector fault-site cluster whose input is p
// itself. acc sums the cluster's result and p every iteration, so a
// flip injected into p persists and shows in every later sum, and a
// cluster result sharing p's storage would show in the sum of the
// iteration that flips.
func siteLoopKernel() *ir.Module {
	v4 := ir.Vec(ir.I32, 4)
	mod := ir.NewModule("siteloop")
	inject := ir.NewDecl("injectFaultI32", ir.I32, ir.I32, ir.I32, ir.I32)
	mod.AddFunc(inject)
	f := ir.NewFunc("main", v4, nil, nil)
	mod.AddFunc(f)
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	ir.NewBuilder(entry).Br(loop)
	b := ir.NewBuilder(loop)
	i := b.Phi(ir.I32, "i")
	p := b.Phi(v4, "p")
	acc := b.Phi(v4, "acc")
	cur := ir.Value(p)
	for lane := 0; lane < 4; lane++ {
		l := ir.ConstInt(ir.I32, int64(lane))
		e := b.ExtractElement(cur, l, "e")
		r := b.Call(inject, "r", e, ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, int64(lane)))
		cur = b.InsertElement(cur, r, l, "s")
	}
	accN := b.Add(acc, b.Add(cur, p, "both"), "accn")
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	c := b.ICmp(ir.IntSLT, iN, ir.ConstInt(ir.I32, 6), "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, iN, loop)
	ir.AddIncoming(p, ir.ConstVec(v4, []uint64{3, 5, 7, 9}), entry)
	ir.AddIncoming(p, cur, loop)
	ir.AddIncoming(acc, ir.ConstZero(v4), entry)
	ir.AddIncoming(acc, accN, loop)
	ir.NewBuilder(exit).Ret(accN)
	return mod
}

// constPhiKernel builds two nested loops whose inner phi p is fed a
// constant from the outer loop on every re-entry and its own update on
// the back edge: a move that shared the constant's storage would let
// the next update write into the constant pool.
func constPhiKernel() *ir.Module {
	v4 := ir.Vec(ir.I32, 4)
	mod := ir.NewModule("constphi")
	f := ir.NewFunc("main", v4, nil, nil)
	mod.AddFunc(f)
	entry, outer, inner, latch, exit := f.NewBlock("entry"), f.NewBlock("outer"),
		f.NewBlock("inner"), f.NewBlock("latch"), f.NewBlock("exit")
	ir.NewBuilder(entry).Br(outer)

	bo := ir.NewBuilder(outer)
	j := bo.Phi(ir.I32, "j")
	tot := bo.Phi(v4, "tot")
	bo.Br(inner)

	bi := ir.NewBuilder(inner)
	p := bi.Phi(v4, "p")
	k := bi.Phi(ir.I32, "k")
	q := bi.Add(p, bi.Broadcast(k, 4, "kb"), "q")
	kN := bi.Add(k, ir.ConstInt(ir.I32, 1), "kn")
	ck := bi.ICmp(ir.IntSLT, kN, ir.ConstInt(ir.I32, 4), "ck")
	bi.CondBr(ck, inner, latch)

	bl := ir.NewBuilder(latch)
	totN := bl.Add(tot, q, "totn")
	jN := bl.Add(j, ir.ConstInt(ir.I32, 1), "jn")
	cj := bl.ICmp(ir.IntSLT, jN, ir.ConstInt(ir.I32, 3), "cj")
	bl.CondBr(cj, outer, exit)

	ir.AddIncoming(j, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(j, jN, latch)
	ir.AddIncoming(tot, ir.ConstZero(v4), entry)
	ir.AddIncoming(tot, totN, latch)
	ir.AddIncoming(p, ir.ConstVec(v4, []uint64{10, 20, 30, 40}), outer)
	ir.AddIncoming(p, q, inner)
	ir.AddIncoming(k, ir.ConstInt(ir.I32, 0), outer)
	ir.AddIncoming(k, kN, inner)
	ir.NewBuilder(exit).Ret(totN)
	return mod
}

// fibVecKernel builds fibv(n, v) = n < 2 ? v : fibv(n-1, v) + fibv(n-2, v):
// vector results returned through every frame depth, a parameter
// returned as is, and a first call's result that must survive the
// second call reusing the same stack words.
func fibVecKernel() *ir.Module {
	v4 := ir.Vec(ir.I32, 4)
	mod := ir.NewModule("fibv")
	fib := ir.NewFunc("fibv", v4, []*ir.Type{ir.I32, v4}, []string{"n", "v"})
	mod.AddFunc(fib)
	entry, base, rec := fib.NewBlock("entry"), fib.NewBlock("base"), fib.NewBlock("rec")
	b := ir.NewBuilder(entry)
	b.CondBr(b.ICmp(ir.IntSLT, fib.Params[0], ir.ConstInt(ir.I32, 2), "c"), base, rec)
	ir.NewBuilder(base).Ret(fib.Params[1])
	br := ir.NewBuilder(rec)
	f1 := br.Call(fib, "f1", br.Sub(fib.Params[0], ir.ConstInt(ir.I32, 1), "n1"), fib.Params[1])
	f2 := br.Call(fib, "f2", br.Sub(fib.Params[0], ir.ConstInt(ir.I32, 2), "n2"), fib.Params[1])
	br.Ret(br.Add(f1, f2, "s"))

	main := ir.NewFunc("main", v4, nil, nil)
	mod.AddFunc(main)
	bm := ir.NewBuilder(main.NewBlock("entry"))
	bm.Ret(bm.Call(fib, "r", ir.ConstInt(ir.I32, 12), ir.ConstVec(v4, []uint64{1, 2, 3, 4})))
	return mod
}

// TestStorageAliasing: the three shapes where frame-owned storage could
// alias — a phi fed by a vSite result whose input is the phi, a phi fed
// a constant, and vectors returned through recursion — agree with the
// tree-walker on values, DynInstrs and DynSites, with and without a
// recorder. The site loop is also injected at every dynamic site.
func TestStorageAliasing(t *testing.T) {
	t.Run("site-phi", func(t *testing.T) {
		mod := siteLoopKernel()
		if n := Compile(mod).Fused("site"); n != 1 {
			t.Fatalf("site clusters lowered = %d, want 1", n)
		}
		golden := aliasDiff(t, mod, core.Plan{Mode: core.CountOnly}, "main")
		if golden.sites != 2*4*6 {
			t.Fatalf("DynSites = %d, want %d", golden.sites, 2*4*6)
		}
		for target := uint64(1); target <= golden.sites+1; target++ {
			out := aliasDiff(t, mod, core.Plan{Mode: core.InjectOnce, TargetDyn: target, BitSeed: target * 7}, "main")
			if out.injected != (target <= golden.sites) {
				t.Fatalf("target %d of %d: injected %v", target, golden.sites, out.injected)
			}
		}
	})
	t.Run("const-phi", func(t *testing.T) {
		out := aliasDiff(t, constPhiKernel(), core.Plan{Mode: core.CountOnly}, "main")
		// Each outer pass leaves q = <10,20,30,40> + (0+1+2+3); both
		// runs sum three passes.
		if want := "<48, 78, 108, 138> <48, 78, 108, 138>"; out.val != want {
			t.Fatalf("result %s, want %s", out.val, want)
		}
	})
	t.Run("fib-vectors", func(t *testing.T) {
		out := aliasDiff(t, fibVecKernel(), core.Plan{Mode: core.CountOnly}, "main")
		// fibv(12, v) = fib(13) * v with fibv(0) = fibv(1) = v.
		if want := "<233, 466, 699, 932> <233, 466, 699, 932>"; out.val != want {
			t.Fatalf("fibv(12, <1,2,3,4>) = %s", out.val)
		}
	})
}

// TestRecorderRetainedValues is TestRecorderAndTracerStreams with a
// recorder that keeps the retired values and formats them only after
// the run: with a recorder attached every published value must stay a
// fresh allocation, never storage a later iteration reuses.
func TestRecorderRetainedValues(t *testing.T) {
	for _, mod := range []*ir.Module{vecKernel(), allocKernel()} {
		var args []interp.Value
		if len(mod.Func("main").Params) > 0 {
			args = append(args, interp.IntValue(ir.I32, 40))
		}
		var treeRec, vmRec keepRecorder
		tree := execute(t, mod, interp.Options{}, false, func(it *interp.Interp) {
			it.SetRecorder(&treeRec)
		}, "main", args...)
		comp := execute(t, mod, interp.Options{}, true, func(it *interp.Interp) {
			it.SetRecorder(&vmRec)
		}, "main", args...)
		assertSameOutcome(t, tree, comp)
		if treeRec.String() != vmRec.String() {
			t.Fatalf("%s: retained values differ after the run:\ntree:\n%s\nvm:\n%s",
				mod.Name, treeRec.String(), vmRec.String())
		}
	}
}

// TestCodeSizedOnce: compileFunc allocates each function's bytecode once
// at its final length (codeLen walks blocks the way lowering does), on
// every benchmark × ISA × category instrumented module.
func TestCodeSizedOnce(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, target := range isa.All {
			for _, cat := range passes.AllCategories {
				res, err := codegen.CompileSource(b.Source, target, b.Name)
				if err != nil {
					t.Fatal(err)
				}
				pass := &core.InstrumentPass{Category: cat, Out: &core.Instrumentation{}}
				if err := pass.Run(res.Module); err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Module.Funcs {
					if f.IsDecl {
						continue
					}
					code, ok := compileFunc(f, map[string]int{}, map[*ir.Func]int32{})
					if !ok {
						t.Fatalf("%s/%s/%s: @%s did not compile", b.Name, target.Name, cat, f.Nam)
					}
					if len(code.code) != cap(code.code) {
						t.Errorf("%s/%s/%s: @%s emitted %d vinstrs into %d presized",
							b.Name, target.Name, cat, f.Nam, len(code.code), cap(code.code))
					}
				}
			}
		}
	}
}

// TestCallResultShape: a registered extern may return a value whose
// shape differs from the call's type. The tree-walker keeps it as is,
// so the VM must too: a result of another width becomes the register's
// own clone, and one of another type keeps its type.
func TestCallResultShape(t *testing.T) {
	v4 := ir.Vec(ir.I32, 4)
	mod := ir.NewModule("shape")
	narrow := ir.NewDecl("narrow", v4)
	retyped := ir.NewDecl("retyped", ir.I32)
	mod.AddFunc(narrow)
	mod.AddFunc(retyped)
	for _, c := range []struct {
		name   string
		callee *ir.Func
		ty     *ir.Type
	}{{"wide", narrow, v4}, {"typed", retyped, ir.I32}} {
		f := ir.NewFunc(c.name, c.ty, nil, nil)
		mod.AddFunc(f)
		b := ir.NewBuilder(f.NewBlock("entry"))
		b.Call(c.callee, "first")
		b.Ret(b.Call(c.callee, "r"))
	}
	hook := func(it *interp.Interp) {
		it.RegisterExtern("narrow", func(*interp.Interp, []interp.Value) (interp.Value, *interp.Trap) {
			return interp.Value{Ty: ir.Vec(ir.I32, 2), Bits: []uint64{7, 9}}, nil
		})
		it.RegisterExtern("retyped", func(*interp.Interp, []interp.Value) (interp.Value, *interp.Trap) {
			return interp.Scalar(ir.I64, 0xFFFFFFFF), nil
		})
	}
	for fn, want := range map[string]string{"wide": "<7, 9>", "typed": "4294967295"} {
		tree := execute(t, mod, interp.Options{}, false, hook, fn)
		comp := execute(t, mod, interp.Options{}, true, hook, fn)
		assertSameOutcome(t, tree, comp)
		if comp.val != want {
			t.Errorf("@%s = %s, want %s", fn, comp.val, want)
		}
	}
}
