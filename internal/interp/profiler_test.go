package interp

import (
	"testing"

	"vulfi/internal/ir"
)

// countingProfiler is the minimal Profiler: it mirrors what DynInstrs
// counts, so the structural equality the profile package relies on is
// pinned here, next to the hook.
type countingProfiler struct {
	n      uint64
	vector uint64
}

func (c *countingProfiler) Account(in *ir.Instr) {
	c.n++
	if in.IsVectorInstr() {
		c.vector++
	}
}

// TestProfilerSeesEveryAccountedInstr: Account must fire for exactly
// the instruction stream behind DynInstrs — phis and terminators
// included, which the Recorder hook deliberately skips.
func TestProfilerSeesEveryAccountedInstr(t *testing.T) {
	m := ir.NewModule("t")
	buildSum(m)
	it, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingProfiler{}
	it.SetProfiler(cp)
	addr, tr := it.Mem.Alloc(10 * 4)
	if tr != nil {
		t.Fatal(tr)
	}
	if _, tr := it.Run("sum", PtrValue(ir.Ptr(ir.I32), addr),
		IntValue(ir.I32, 10)); tr != nil {
		t.Fatal(tr)
	}
	if cp.n != it.DynInstrs {
		t.Fatalf("profiler saw %d instrs, interpreter counted %d", cp.n, it.DynInstrs)
	}
	if cp.vector != it.DynVector {
		t.Fatalf("profiler saw %d vector instrs, interpreter counted %d",
			cp.vector, it.DynVector)
	}

	// Reset detaches the profiler like it detaches the recorder.
	if tr := it.Reset(Options{}); tr != nil {
		t.Fatal(tr)
	}
	addr, tr = it.Mem.Alloc(10 * 4)
	if tr != nil {
		t.Fatal(tr)
	}
	before := cp.n
	if _, tr := it.Run("sum", PtrValue(ir.Ptr(ir.I32), addr),
		IntValue(ir.I32, 10)); tr != nil {
		t.Fatal(tr)
	}
	if cp.n != before {
		t.Fatal("profiler survived Reset")
	}
}
