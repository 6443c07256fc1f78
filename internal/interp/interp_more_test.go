package interp

import (
	"strings"
	"testing"

	"vulfi/internal/ir"
)

// buildRecursive builds f(n) = n == 0 ? 0 : f(n-1), which recurses n deep.
func buildRecursive(m *ir.Module) *ir.Func {
	f := ir.NewFunc("rec", ir.I32, []*ir.Type{ir.I32}, []string{"n"})
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	base := f.NewBlock("base")
	rec := f.NewBlock("rec")
	bu := ir.NewBuilder(entry)
	c := bu.ICmp(ir.IntEQ, f.Params[0], ir.ConstInt(ir.I32, 0), "c")
	bu.CondBr(c, base, rec)
	bu.SetBlock(base)
	bu.Ret(ir.ConstInt(ir.I32, 0))
	bu.SetBlock(rec)
	n1 := bu.Sub(f.Params[0], ir.ConstInt(ir.I32, 1), "n1")
	r := bu.Call(f, "r", n1)
	bu.Ret(r)
	return f
}

func TestCallDepthTrap(t *testing.T) {
	m := ir.NewModule("t")
	buildRecursive(m)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	it, _ := New(m, Options{MaxDepth: 64})
	if _, tr := it.Run("rec", IntValue(ir.I32, 10)); tr != nil {
		t.Fatalf("shallow recursion trapped: %v", tr)
	}
	it2, _ := New(m, Options{MaxDepth: 64})
	_, tr := it2.Run("rec", IntValue(ir.I32, 1000))
	if tr == nil || tr.Kind != TrapStack {
		t.Fatalf("deep recursion trap = %v", tr)
	}
}

func TestBudgetTrap(t *testing.T) {
	m := ir.NewModule("t")
	f := ir.NewFunc("spin", ir.Void, nil, nil)
	m.AddFunc(f)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	bu := ir.NewBuilder(entry)
	bu.Br(loop)
	bu.SetBlock(loop)
	bu.Br(loop) // infinite loop
	it, _ := New(m, Options{Budget: 10_000})
	_, tr := it.Run("spin")
	if tr == nil || tr.Kind != TrapBudget {
		t.Fatalf("hang trap = %v", tr)
	}
}

func TestUnresolvedExtern(t *testing.T) {
	m := ir.NewModule("t")
	d := ir.NewDecl("mystery.fn", ir.I32, ir.I32)
	m.AddFunc(d)
	f := ir.NewFunc("f", ir.I32, nil, nil)
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	r := bu.Call(d, "r", ir.ConstInt(ir.I32, 1))
	bu.Ret(r)
	it, _ := New(m, Options{})
	_, tr := it.Run("f")
	if tr == nil || !strings.Contains(tr.Msg, "mystery.fn") {
		t.Fatalf("unresolved extern trap = %v", tr)
	}
}

func TestGenericMathIntrinsics(t *testing.T) {
	m := ir.NewModule("t")
	sqrt := ir.NewDecl("llvm.sqrt.v4f32", ir.Vec(ir.F32, 4), ir.Vec(ir.F32, 4))
	m.AddFunc(sqrt)
	pow := ir.NewDecl("llvm.pow.f32", ir.F32, ir.F32, ir.F32)
	m.AddFunc(pow)
	f := ir.NewFunc("f", ir.F32, []*ir.Type{ir.Vec(ir.F32, 4)}, []string{"v"})
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	s := bu.Call(sqrt, "s", f.Params[0])
	e0 := bu.ExtractElement(s, ir.ConstInt(ir.I32, 0), "e0")
	p := bu.Call(pow, "p", e0, ir.ConstFloat(ir.F32, 2))
	bu.Ret(p)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	it, _ := New(m, Options{})
	v := Zero(ir.Vec(ir.F32, 4))
	for i := range v.Bits {
		v.SetLaneFloat(i, 9)
	}
	got, tr := it.Run("f", v)
	if tr != nil {
		t.Fatal(tr)
	}
	// sqrt(9)^2 == 9
	if got.Float() != 9 {
		t.Fatalf("sqrt/pow chain = %v", got.Float())
	}
}

func TestOutputBuiltins(t *testing.T) {
	m := ir.NewModule("t")
	outI := ir.NewDecl("vulfi.out.i32", ir.Void, ir.I32)
	m.AddFunc(outI)
	outV := ir.NewDecl("vulfi.out.v4f32", ir.Void, ir.Vec(ir.F32, 4))
	m.AddFunc(outV)
	f := ir.NewFunc("f", ir.Void, nil, nil)
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	bu.Call(outI, "", ir.ConstInt(ir.I32, -7))
	vec := ir.ConstVec(ir.Vec(ir.F32, 4), []uint64{
		FloatValue(ir.F32, 1).Bits[0], FloatValue(ir.F32, 2).Bits[0],
		FloatValue(ir.F32, 3).Bits[0], FloatValue(ir.F32, 4).Bits[0],
	})
	bu.Call(outV, "", vec)
	bu.Ret(nil)
	it, _ := New(m, Options{})
	if _, tr := it.Run("f"); tr != nil {
		t.Fatal(tr)
	}
	want := "-7\n1\n2\n3\n4\n"
	if it.Output.String() != want {
		t.Fatalf("output = %q, want %q", it.Output.String(), want)
	}
}

func TestShuffleAndInsertExtract(t *testing.T) {
	m := ir.NewModule("t")
	vt := ir.Vec(ir.I32, 4)
	f := ir.NewFunc("f", vt, []*ir.Type{vt}, []string{"v"})
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	// Reverse the vector with a shuffle.
	rev := bu.ShuffleVector(f.Params[0], ir.UndefValue(vt), []int{3, 2, 1, 0}, "rev")
	// Then put 99 into lane 1.
	ins := bu.InsertElement(rev, ir.ConstInt(ir.I32, 99), ir.ConstInt(ir.I32, 1), "ins")
	bu.Ret(ins)
	it, _ := New(m, Options{})
	in := Value{Ty: vt, Bits: []uint64{10, 20, 30, 40}}
	got, tr := it.Run("f", in)
	if tr != nil {
		t.Fatal(tr)
	}
	want := []int64{40, 99, 20, 10}
	for i, w := range want {
		if got.LaneInt(i) != w {
			t.Fatalf("lane %d = %d, want %d", i, got.LaneInt(i), w)
		}
	}
}

func TestExtractBadIndexTraps(t *testing.T) {
	m := ir.NewModule("t")
	vt := ir.Vec(ir.I32, 4)
	f := ir.NewFunc("f", ir.I32, []*ir.Type{vt, ir.I32}, []string{"v", "i"})
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	e := bu.ExtractElement(f.Params[0], f.Params[1], "e")
	bu.Ret(e)
	it, _ := New(m, Options{})
	in := Value{Ty: vt, Bits: []uint64{1, 2, 3, 4}}
	_, tr := it.Run("f", in, IntValue(ir.I32, 9))
	if tr == nil || tr.Kind != TrapBadIndex {
		t.Fatalf("bad index trap = %v", tr)
	}
}

func TestGlobalsAllocatedAndAddressable(t *testing.T) {
	m := ir.NewModule("t")
	g := &ir.Global{Nam: "table", Elem: ir.I32, Count: 4}
	m.AddGlobal(g)
	f := ir.NewFunc("f", ir.I32, nil, nil)
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	p := bu.GEP(g, ir.ConstInt(ir.I32, 2), "p")
	bu.Store(ir.ConstInt(ir.I32, 123), p)
	l := bu.Load(p, "l")
	bu.Ret(l)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	it, _ := New(m, Options{})
	got, tr := it.Run("f")
	if tr != nil || got.Int() != 123 {
		t.Fatalf("global store/load = %v %v", got, tr)
	}
	if _, ok := it.GlobalAddrByName("table"); !ok {
		t.Fatal("global address not registered")
	}
}

func TestAccounting(t *testing.T) {
	m := ir.NewModule("t")
	vt := ir.Vec(ir.I32, 4)
	f := ir.NewFunc("f", vt, []*ir.Type{vt}, []string{"v"})
	m.AddFunc(f)
	bu := ir.NewBuilder(f.NewBlock("entry"))
	a := bu.Add(f.Params[0], f.Params[0], "a") // vector
	e := bu.ExtractElement(a, ir.ConstInt(ir.I32, 0), "e")
	_ = bu.Add(e, e, "s") // scalar — kept alive by nothing; still executed
	bu.Ret(a)
	it, _ := New(m, Options{})
	if _, tr := it.Run("f", Zero(vt)); tr != nil {
		t.Fatal(tr)
	}
	// 4 instructions executed: add, extract, add, ret.
	if it.DynInstrs != 4 {
		t.Fatalf("DynInstrs = %d, want 4", it.DynInstrs)
	}
	// Vector instructions: the vector add, the extractelement, and the
	// ret (it has a vector operand — the paper's definition counts it).
	if it.DynVector != 3 {
		t.Fatalf("DynVector = %d, want 3", it.DynVector)
	}
}
