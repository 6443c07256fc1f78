package vm

import (
	"fmt"
	"testing"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// runOutcome captures everything observable about one execution.
type runOutcome struct {
	val    string
	trap   *interp.Trap
	dyn    uint64
	vec    uint64
	output string
}

func execute(t *testing.T, mod *ir.Module, opts interp.Options, compiled bool,
	hook func(it *interp.Interp), fn string, args ...interp.Value) runOutcome {
	t.Helper()
	it, err := interp.New(mod, opts)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	if compiled {
		prog := Compile(mod)
		if !prog.Compiled(mod.Func(fn)) {
			t.Fatalf("function @%s did not compile", fn)
		}
		Attach(it, prog)
	}
	if hook != nil {
		hook(it)
	}
	v, tr := it.Run(fn, args...)
	vs := ""
	if v.Ty != nil {
		vs = v.String()
	}
	return runOutcome{
		val: vs, trap: tr,
		dyn: it.DynInstrs, vec: it.DynVector,
		output: it.Output.String(),
	}
}

// differential runs fn on both backends and asserts every observable is
// identical, returning the (shared) outcome.
func differential(t *testing.T, mod *ir.Module, opts interp.Options,
	fn string, args ...interp.Value) runOutcome {
	t.Helper()
	for _, f := range mod.Funcs {
		if !f.IsDecl {
			if err := f.Verify(); err != nil {
				t.Fatalf("verify @%s: %v", f.Nam, err)
			}
		}
	}
	tree := execute(t, mod, opts, false, nil, fn, args...)
	comp := execute(t, mod, opts, true, nil, fn, args...)
	assertSameOutcome(t, tree, comp)
	return comp
}

func assertSameOutcome(t *testing.T, tree, comp runOutcome) {
	t.Helper()
	if tree.val != comp.val {
		t.Errorf("result: tree %s, vm %s", tree.val, comp.val)
	}
	if (tree.trap == nil) != (comp.trap == nil) {
		t.Fatalf("trap presence: tree %v, vm %v", tree.trap, comp.trap)
	}
	if tree.trap != nil && *tree.trap != *comp.trap {
		t.Errorf("trap: tree %+v, vm %+v", *tree.trap, *comp.trap)
	}
	if tree.dyn != comp.dyn {
		t.Errorf("DynInstrs: tree %d, vm %d", tree.dyn, comp.dyn)
	}
	if tree.vec != comp.vec {
		t.Errorf("DynVector: tree %d, vm %d", tree.vec, comp.vec)
	}
	if tree.output != comp.output {
		t.Errorf("output: tree %q, vm %q", tree.output, comp.output)
	}
}

// countLoop builds: for (i = 0; i < n; i++) acc += i*2; return acc.
func countLoop(n int64) *ir.Module {
	mod := ir.NewModule("loop")
	f := ir.NewFunc("main", ir.I32, nil, nil)
	mod.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	ir.NewBuilder(entry).Br(loop)

	b := ir.NewBuilder(loop)
	i := b.Phi(ir.I32, "i")
	acc := b.Phi(ir.I32, "acc")
	tw := b.Mul(i, ir.ConstInt(ir.I32, 2), "tw")
	accN := b.Add(acc, tw, "accn")
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	c := b.ICmp(ir.IntSLT, iN, ir.ConstInt(ir.I32, n), "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, iN, loop)
	ir.AddIncoming(acc, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(acc, accN, loop)

	ir.NewBuilder(exit).Ret(acc)
	return mod
}

func TestDifferentialScalarLoop(t *testing.T) {
	out := differential(t, countLoop(100), interp.Options{}, "main")
	if out.trap != nil {
		t.Fatalf("unexpected trap: %v", out.trap)
	}
}

// TestPhiSwap pins the swap problem: two phis exchanging values every
// iteration across a critical edge (the loop latch both re-enters the
// loop and exits). A naive sequential copy would collapse both phis to
// one value; the sequenced edge moves must break the cycle through the
// scratch register.
func TestPhiSwap(t *testing.T) {
	mod := ir.NewModule("swap")
	f := ir.NewFunc("main", ir.I32, nil, nil)
	mod.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	ir.NewBuilder(entry).Br(loop)

	b := ir.NewBuilder(loop)
	a := b.Phi(ir.I32, "a")
	bb := b.Phi(ir.I32, "b")
	i := b.Phi(ir.I32, "i")
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	c := b.ICmp(ir.IntSLT, iN, ir.ConstInt(ir.I32, 5), "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(a, ir.ConstInt(ir.I32, 1), entry)
	ir.AddIncoming(a, bb, loop) // a and b swap on the back edge
	ir.AddIncoming(bb, ir.ConstInt(ir.I32, 2), entry)
	ir.AddIncoming(bb, a, loop)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, iN, loop)

	be := ir.NewBuilder(exit)
	hi := be.Mul(a, ir.ConstInt(ir.I32, 10), "hi")
	r := be.Add(hi, bb, "r")
	be.Ret(r)

	out := differential(t, mod, interp.Options{}, "main")
	// 5 iterations: (a,b) goes 1,2 -> 2,1 -> 1,2 -> 2,1 -> 1,2; the
	// final loop body observes a=1, b=2, so a*10+b = 12.
	if out.val != "12" {
		t.Fatalf("swap result = %s, want 12", out.val)
	}
}

// TestPhiRotate3 extends the cycle to length three (a<-b<-c<-a), which
// still needs exactly one scratch parking per round.
func TestPhiRotate3(t *testing.T) {
	mod := ir.NewModule("rot3")
	f := ir.NewFunc("main", ir.I32, nil, nil)
	mod.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	ir.NewBuilder(entry).Br(loop)

	b := ir.NewBuilder(loop)
	a := b.Phi(ir.I32, "a")
	b2 := b.Phi(ir.I32, "b")
	c3 := b.Phi(ir.I32, "c")
	i := b.Phi(ir.I32, "i")
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	cc := b.ICmp(ir.IntSLT, iN, ir.ConstInt(ir.I32, 4), "cc")
	b.CondBr(cc, loop, exit)
	ir.AddIncoming(a, ir.ConstInt(ir.I32, 1), entry)
	ir.AddIncoming(a, b2, loop)
	ir.AddIncoming(b2, ir.ConstInt(ir.I32, 2), entry)
	ir.AddIncoming(b2, c3, loop)
	ir.AddIncoming(c3, ir.ConstInt(ir.I32, 3), entry)
	ir.AddIncoming(c3, a, loop)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(i, iN, loop)

	be := ir.NewBuilder(exit)
	t1 := be.Mul(a, ir.ConstInt(ir.I32, 100), "t1")
	t2 := be.Mul(b2, ir.ConstInt(ir.I32, 10), "t2")
	t3 := be.Add(t1, t2, "t3")
	r := be.Add(t3, c3, "r")
	be.Ret(r)

	out := differential(t, mod, interp.Options{}, "main")
	// 4 iterations rotate (1,2,3) -> (2,3,1) -> (3,1,2) -> (1,2,3);
	// final body observes (1,2,3): 100*1 + 10*2 + 3 = 123.
	if out.val != "123" {
		t.Fatalf("rotate result = %s, want 123", out.val)
	}
}

// TestPhiLostCopy pins the lost-copy problem: the phi's pre-update value
// is consumed after the loop. Moves placed naively at the end of the
// latch block (instead of on the taken edge) would clobber %x with %xn
// before the exit path reads it.
func TestPhiLostCopy(t *testing.T) {
	mod := ir.NewModule("lostcopy")
	f := ir.NewFunc("main", ir.I32, nil, nil)
	mod.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	ir.NewBuilder(entry).Br(loop)

	b := ir.NewBuilder(loop)
	x := b.Phi(ir.I32, "x")
	xN := b.Add(x, ir.ConstInt(ir.I32, 1), "xn")
	c := b.ICmp(ir.IntSLT, xN, ir.ConstInt(ir.I32, 7), "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(x, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(x, xN, loop)

	ir.NewBuilder(exit).Ret(x) // the OLD x, not xn
	out := differential(t, mod, interp.Options{}, "main")
	// Exits when xn == 7; x still holds 6 on the exit edge.
	if out.val != "6" {
		t.Fatalf("lost-copy result = %s, want 6", out.val)
	}
}

// vecKernel builds a vector loop over a global array: load <4 x i32>
// lanes via gep, double them, store back, then checksum — exercising
// gep+load / gep+store fusion, vector accounting, and extractelement.
func vecKernel() *ir.Module {
	mod := ir.NewModule("vec")
	v4 := ir.Vec(ir.I32, 4)
	g := &ir.Global{Nam: "data", Elem: v4, Count: 8}
	mod.AddGlobal(g)

	f := ir.NewFunc("main", ir.I32, nil, nil)
	mod.AddFunc(f)
	entry := f.NewBlock("entry")
	initB := f.NewBlock("init")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	ir.NewBuilder(entry).Br(initB)

	// init: seed data[j] = <j, j+1, j+2, j+3>
	bi := ir.NewBuilder(initB)
	j := bi.Phi(ir.I32, "j")
	lanes := bi.Broadcast(j, 4, "seed")
	step := ir.ConstVec(v4, []uint64{0, 1, 2, 3})
	seeded := bi.Add(lanes, step, "seeded")
	pj := bi.GEP(g, j, "pj")
	bi.Store(seeded, pj)
	jN := bi.Add(j, ir.ConstInt(ir.I32, 1), "jn")
	cj := bi.ICmp(ir.IntSLT, jN, ir.ConstInt(ir.I32, 8), "cj")
	bi.CondBr(cj, initB, loop)
	ir.AddIncoming(j, ir.ConstInt(ir.I32, 0), entry)
	ir.AddIncoming(j, jN, initB)

	// loop: data[i] *= 2, acc += lane0
	b := ir.NewBuilder(loop)
	i := b.Phi(ir.I32, "i")
	acc := b.Phi(ir.I32, "acc")
	p := b.GEP(g, i, "p")
	ld := b.Load(p, "ld")
	dbl := b.Add(ld, ld, "dbl")
	p2 := b.GEP(g, i, "p2")
	b.Store(dbl, p2)
	lane := b.ExtractElement(dbl, ir.ConstInt(ir.I32, 0), "lane")
	accN := b.Add(acc, lane, "accn")
	iN := b.Add(i, ir.ConstInt(ir.I32, 1), "in")
	c := b.ICmp(ir.IntSLT, iN, ir.ConstInt(ir.I32, 8), "c")
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I32, 0), initB)
	ir.AddIncoming(i, iN, loop)
	ir.AddIncoming(acc, ir.ConstInt(ir.I32, 0), initB)
	ir.AddIncoming(acc, accN, loop)

	ir.NewBuilder(exit).Ret(acc)
	return mod
}

func TestDifferentialVectorKernel(t *testing.T) {
	out := differential(t, vecKernel(), interp.Options{}, "main")
	if out.trap != nil {
		t.Fatalf("unexpected trap: %v", out.trap)
	}
	if out.vec == 0 {
		t.Fatal("vector kernel accounted no vector instructions")
	}
	// The returned value is the acc *phi* (live-out of the loop), which
	// lags the final iteration's update: sum of 2*i for i = 0..6 = 42.
	if out.val != "42" {
		t.Fatalf("checksum = %s, want 42", out.val)
	}
}

func TestFusionEmitted(t *testing.T) {
	prog := Compile(vecKernel())
	if n := prog.Fused("gep+load"); n == 0 {
		t.Error("no gep+load superinstruction emitted")
	}
	if n := prog.Fused("gep+store"); n == 0 {
		t.Error("no gep+store superinstruction emitted")
	}
	if n := prog.Fused("cmp+br"); n == 0 {
		t.Error("no cmp+br superinstruction emitted")
	}
}

// Trap differentials: kind, message, provenance and dynamic index must
// all match the tree-walker exactly.

func TestDifferentialDivZeroTrap(t *testing.T) {
	mod := ir.NewModule("div")
	f := ir.NewFunc("main", ir.I32, []*ir.Type{ir.I32}, []string{"d"})
	mod.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	q := b.SDiv(ir.ConstInt(ir.I32, 42), f.Params[0], "q")
	b.Ret(q)

	out := differential(t, mod, interp.Options{}, "main", interp.IntValue(ir.I32, 0))
	if out.trap == nil || out.trap.Kind != interp.TrapDivZero {
		t.Fatalf("want div-zero trap, got %v", out.trap)
	}
	if out.trap.Func != "main" || out.trap.Block != "entry" {
		t.Fatalf("trap provenance = %q/%q", out.trap.Func, out.trap.Block)
	}
}

func TestDifferentialExtractOOBTrap(t *testing.T) {
	mod := ir.NewModule("oob")
	v4 := ir.Vec(ir.I32, 4)
	f := ir.NewFunc("main", ir.I32, []*ir.Type{ir.I32}, []string{"idx"})
	mod.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	vec := ir.ConstVec(v4, []uint64{10, 20, 30, 40})
	e := b.ExtractElement(vec, f.Params[0], "e")
	b.Ret(e)

	out := differential(t, mod, interp.Options{}, "main", interp.IntValue(ir.I32, 9))
	if out.trap == nil || out.trap.Kind != interp.TrapBadIndex {
		t.Fatalf("want bad-index trap, got %v", out.trap)
	}
}

func TestDifferentialUnreachableTrap(t *testing.T) {
	mod := ir.NewModule("unreach")
	f := ir.NewFunc("main", ir.Void, nil, nil)
	mod.AddFunc(f)
	ir.NewBuilder(f.NewBlock("entry")).Unreachable()

	out := differential(t, mod, interp.Options{}, "main")
	if out.trap == nil || out.trap.Kind != interp.TrapHalt {
		t.Fatalf("want halt trap, got %v", out.trap)
	}
	if out.trap.Msg != "reached unreachable in @main" {
		t.Fatalf("trap msg = %q", out.trap.Msg)
	}
}

// TestDifferentialBudgetTrap pins the budget-check schedule: both
// backends must stop at the identical dynamic instruction index with the
// identical message, which only happens when the VM checks on the exact
// 1024-boundary-and-phi schedule of the tree-walker.
func TestDifferentialBudgetTrap(t *testing.T) {
	out := differential(t, countLoop(1_000_000), interp.Options{Budget: 5000}, "main")
	if out.trap == nil || out.trap.Kind != interp.TrapBudget {
		t.Fatalf("want budget trap, got %v", out.trap)
	}
}

func TestDifferentialCalls(t *testing.T) {
	mod := ir.NewModule("calls")
	fib := ir.NewFunc("fib", ir.I32, []*ir.Type{ir.I32}, []string{"n"})
	mod.AddFunc(fib)
	entry := fib.NewBlock("entry")
	rec := fib.NewBlock("rec")
	base := fib.NewBlock("base")
	b := ir.NewBuilder(entry)
	c := b.ICmp(ir.IntSLT, fib.Params[0], ir.ConstInt(ir.I32, 2), "c")
	b.CondBr(c, base, rec)
	ir.NewBuilder(base).Ret(fib.Params[0])
	br := ir.NewBuilder(rec)
	n1 := br.Sub(fib.Params[0], ir.ConstInt(ir.I32, 1), "n1")
	f1 := br.Call(fib, "f1", n1)
	n2 := br.Sub(fib.Params[0], ir.ConstInt(ir.I32, 2), "n2")
	f2 := br.Call(fib, "f2", n2)
	s := br.Add(f1, f2, "s")
	br.Ret(s)

	main := ir.NewFunc("main", ir.I32, nil, nil)
	mod.AddFunc(main)
	bm := ir.NewBuilder(main.NewBlock("entry"))
	r := bm.Call(fib, "r", ir.ConstInt(ir.I32, 12))
	bm.Ret(r)

	out := differential(t, mod, interp.Options{}, "main")
	if out.val != "144" {
		t.Fatalf("fib(12) = %s, want 144", out.val)
	}
}

func TestDifferentialStackTrap(t *testing.T) {
	mod := ir.NewModule("deep")
	f := ir.NewFunc("main", ir.Void, nil, nil)
	mod.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Call(f, "")
	b.Ret(nil)

	out := differential(t, mod, interp.Options{MaxDepth: 64}, "main")
	if out.trap == nil || out.trap.Kind != interp.TrapStack {
		t.Fatalf("want stack trap, got %v", out.trap)
	}
}

// capRecorder captures the retirement stream as comparable strings.
type capRecorder struct{ events []string }

func (r *capRecorder) Retire(in *ir.Instr, dyn uint64, v interp.Value) {
	vs := "void"
	if v.Ty != nil {
		vs = v.String()
	}
	r.events = append(r.events, fmt.Sprintf("%s@%d=%s", in.Ident(), dyn, vs))
}

// TestRecorderAndTracerStreams asserts the recorder's retirement stream
// is identical between backends — including through fused
// superinstructions, which must fall back to full-fidelity accounting
// when a recorder is attached. (The name predates the removal of the
// interpreter's debug tracer, whose stream this test also compared.)
func TestRecorderAndTracerStreams(t *testing.T) {
	mod := vecKernel()
	var treeRec, vmRec capRecorder

	tree := execute(t, mod, interp.Options{}, false, func(it *interp.Interp) {
		it.SetRecorder(&treeRec)
	}, "main")
	comp := execute(t, mod, interp.Options{}, true, func(it *interp.Interp) {
		it.SetRecorder(&vmRec)
	}, "main")
	assertSameOutcome(t, tree, comp)

	if len(treeRec.events) != len(vmRec.events) {
		t.Fatalf("recorder stream length: tree %d, vm %d",
			len(treeRec.events), len(vmRec.events))
	}
	for i := range treeRec.events {
		if treeRec.events[i] != vmRec.events[i] {
			t.Fatalf("recorder event %d: tree %q, vm %q",
				i, treeRec.events[i], vmRec.events[i])
		}
	}
}

// TestDeclineFallsBackToTree: a block without a terminator is refused by
// the compiler, and the tree-walker's runtime diagnostic must surface
// unchanged through the attached (declining) engine.
func TestDeclineFallsBackToTree(t *testing.T) {
	mod := ir.NewModule("fallthrough")
	f := ir.NewFunc("main", ir.Void, nil, nil)
	mod.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Add(ir.ConstInt(ir.I32, 1), ir.ConstInt(ir.I32, 2), "x")
	// no terminator

	prog := Compile(mod)
	if prog.Compiled(mod.Func("main")) {
		t.Fatal("unterminated function should not compile")
	}

	it, err := interp.New(mod, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	Attach(it, prog)
	_, tr := it.Run("main")
	if tr == nil || tr.Kind != interp.TrapHalt || tr.Msg != "block entry fell through" {
		t.Fatalf("want fell-through trap, got %v", tr)
	}
}

// TestEngineSurvivesReset: campaign pools Reset-and-reuse instances; the
// engine must stay attached and produce identical counts on the rerun.
func TestEngineSurvivesReset(t *testing.T) {
	mod := countLoop(50)
	it, err := interp.New(mod, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	Attach(it, Compile(mod))
	v1, tr1 := it.Run("main")
	if tr1 != nil {
		t.Fatal(tr1)
	}
	dyn1 := it.DynInstrs
	if it.Engine() == nil {
		t.Fatal("engine missing before reset")
	}
	if tr := it.Reset(interp.Options{}); tr != nil {
		t.Fatal(tr)
	}
	if it.Engine() == nil {
		t.Fatal("engine dropped by Reset")
	}
	v2, tr2 := it.Run("main")
	if tr2 != nil {
		t.Fatal(tr2)
	}
	if v1.String() != v2.String() || dyn1 != it.DynInstrs {
		t.Fatalf("rerun after reset diverged: %s/%d vs %s/%d",
			v1, dyn1, v2, it.DynInstrs)
	}
}

// TestDifferentialExterns: extern dispatch happens before the engine is
// offered, so runtime-API calls (the injection hooks ride this path)
// behave identically.
func TestDifferentialExterns(t *testing.T) {
	mod := ir.NewModule("ext")
	decl := ir.NewDecl("emit", ir.Void, ir.I32)
	mod.AddFunc(decl)
	f := ir.NewFunc("main", ir.Void, nil, nil)
	mod.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	b.Call(decl, "", ir.ConstInt(ir.I32, 7))
	b.Call(decl, "", ir.ConstInt(ir.I32, 8))
	b.Ret(nil)

	hook := func(it *interp.Interp) {
		it.RegisterExtern("emit", func(it *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
			fmt.Fprintf(&it.Output, "emit(%d)\n", args[0].Int())
			return interp.Value{}, nil
		})
	}
	tree := execute(t, mod, interp.Options{}, false, hook, "main")
	comp := execute(t, mod, interp.Options{}, true, hook, "main")
	assertSameOutcome(t, tree, comp)
	if comp.output != "emit(7)\nemit(8)\n" {
		t.Fatalf("extern output = %q", comp.output)
	}
}

// TestDifferentialOps sweeps the remaining opcode families (select,
// casts, shuffle, insert, float arithmetic, srem/urem edge) on both
// backends.
func TestDifferentialOps(t *testing.T) {
	mod := ir.NewModule("ops")
	v4 := ir.Vec(ir.F32, 4)
	f := ir.NewFunc("main", ir.F64, []*ir.Type{ir.I32}, []string{"k"})
	mod.AddFunc(f)
	b := ir.NewBuilder(f.NewBlock("entry"))
	k := f.Params[0]

	wide := b.Cast(ir.OpSExt, k, ir.I64, "wide")
	back := b.Cast(ir.OpTrunc, wide, ir.I32, "back")
	fk := b.Cast(ir.OpSIToFP, back, ir.F32, "fk")
	spread := b.Broadcast(fk, 4, "spread")
	bump := b.FAdd(spread, ir.ConstVec(v4, []uint64{
		floatBits32(0.5), floatBits32(1.5), floatBits32(2.5), floatBits32(3.5),
	}), "bump")
	rev := b.ShuffleVector(bump, bump, []int{3, 2, 1, 0}, "rev")
	one := b.Cast(ir.OpFPTrunc, ir.ConstFloat(ir.F64, 9.25), ir.F32, "one")
	ins := b.InsertElement(rev, one, ir.ConstInt(ir.I32, 2), "ins")
	l0 := b.ExtractElement(ins, ir.ConstInt(ir.I32, 0), "l0")
	l2 := b.ExtractElement(ins, ir.ConstInt(ir.I32, 2), "l2")
	cond := b.FCmp(ir.FloatOGT, l0, l2, "cond")
	sel := b.Select(cond, l0, l2, "sel")
	out := b.Cast(ir.OpFPExt, sel, ir.F64, "out")
	b.Ret(out)

	differential(t, mod, interp.Options{}, "main", interp.IntValue(ir.I32, 4))
	differential(t, mod, interp.Options{}, "main", interp.IntValue(ir.I32, 11))
}

func floatBits32(f float32) uint64 {
	return uint64(interp.FloatValue(ir.F32, float64(f)).Bits[0])
}
