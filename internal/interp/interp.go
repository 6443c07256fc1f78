package interp

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"vulfi/internal/ir"
)

// ExternFn implements an external function (LLVM intrinsic or runtime API
// call). It receives the interpreter so it can touch memory and counters.
type ExternFn func(it *Interp, args []Value) (Value, *Trap)

// Options configure an interpreter instance.
type Options struct {
	// Budget bounds the number of executed IR instructions; exceeding it
	// traps with TrapBudget (models a hung faulty run). 0 = 200M.
	Budget uint64
	// MemLimit bounds total allocation in bytes. 0 = 1 GiB.
	MemLimit uint64
	// MaxDepth bounds call nesting. 0 = 512.
	MaxDepth int
}

// Interp executes functions of one module instance.
type Interp struct {
	Mod *ir.Module
	Mem *Memory

	// Output accumulates program output (the vspc print/out builtins);
	// campaigns compare it between golden and faulty runs.
	Output bytes.Buffer

	// DynInstrs counts executed IR instructions; DynVector the subset that
	// are vector instructions (≥1 vector operand).
	DynInstrs uint64
	DynVector uint64

	// Detections accumulates messages from synthesized error detectors
	// (the checkInvariants* runtime API). DetectionDyns records, parallel
	// to Detections, the dynamic-instruction index at which each detector
	// fired (the time-to-detection input for propagation tracing).
	Detections    []string
	DetectionDyns []uint64

	externs map[string]ExternFn
	// externBy memoizes name-based extern resolution per declaration
	// node, turning the per-call string-map lookup (hash of the symbol
	// name) into a pointer-keyed one. RegisterExtern invalidates it, so
	// replacement keeps its install-over semantics.
	externBy map[*ir.Func]ExternFn
	// externEpoch counts RegisterExtern calls; engines key their own
	// resolved-extern caches on it (see ExternEpoch).
	externEpoch uint64
	budget      uint64
	maxDepth    int
	depth       int
	globals     map[*ir.Global]uint64
	rec         Recorder
	prof        Profiler
	// hb, when attached, receives the current DynInstrs on every budget
	// check (after each phi block and every 1024th accounted
	// instruction) — a liveness pulse for watchdogs, costing one nil
	// check per budget check when detached. Cleared by Reset like the
	// recorder and profiler (see SetHeartbeat).
	hb func(uint64)
	// engine, when attached, executes compiled function bodies against
	// this interpreter's state; nil tree-walks everything. Like externs
	// and metrics it survives Reset (see SetEngine).
	engine Engine
	// sites is the fault-injection plan the injection runtime's externs
	// and the engine's site fast path read; it survives Reset with the
	// externs that depend on it (see SetSitePlan).
	sites SitePlan

	// frames and ops recycle call frames and operand buffers across
	// calls (and across Reset), so the steady state of a long campaign
	// allocates neither on the execution hot path.
	frames []*frame
	ops    [][]Value

	// metrics, when attached, receives batched execution counters; nil
	// keeps the hot path to a single pointer test (see SetMetrics).
	metrics       *Metrics
	flushedInstrs uint64
	flushedVector uint64
	siteVisits    uint64
	flushedVisits uint64
}

// New creates an interpreter for mod, allocating storage for its globals.
func New(mod *ir.Module, opts Options) (*Interp, error) {
	it := &Interp{
		Mod:     mod,
		Mem:     NewMemory(opts.MemLimit),
		externs: map[string]ExternFn{},
		globals: map[*ir.Global]uint64{},
	}
	if tr := it.Reset(opts); tr != nil {
		return nil, tr
	}
	RegisterBuiltins(it)
	return it, nil
}

// Reset returns the interpreter to its post-New state under new options,
// keeping registered externs, the bound site plan, attached metrics and
// the recycling pools but dropping all execution state: output,
// counters, detections, recorder, profiler, heartbeat, call depth and
// the entire memory image. Globals are reallocated in module order on
// the recycled memory, so they land at exactly the addresses a fresh
// interpreter would use — a deterministic program behaves identically
// on a reset and on a fresh instance.
// Campaign hot paths reset-and-reuse instances instead of rebuilding
// every frame, buffer and segment per experiment.
func (it *Interp) Reset(opts Options) *Trap {
	if opts.Budget == 0 {
		opts.Budget = 200_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 512
	}
	it.Mem.Reset(opts.MemLimit)
	it.Output.Reset()
	it.DynInstrs, it.DynVector = 0, 0
	it.Detections = it.Detections[:0]
	it.DetectionDyns = it.DetectionDyns[:0]
	it.budget = opts.Budget
	it.maxDepth = opts.MaxDepth
	it.depth = 0
	it.rec = nil
	it.prof = nil
	it.hb = nil
	it.flushedInstrs, it.flushedVector = 0, 0
	it.siteVisits, it.flushedVisits = 0, 0
	clear(it.globals)
	for _, g := range it.Mod.Globals {
		addr, tr := it.Mem.Alloc(uint64(g.Elem.ByteSize() * g.Count))
		if tr != nil {
			return tr
		}
		it.globals[g] = addr
	}
	return nil
}

// RegisterExtern installs (or replaces) the implementation of an external
// function.
func (it *Interp) RegisterExtern(name string, fn ExternFn) {
	it.externs[name] = fn
	clear(it.externBy)
	it.externEpoch++
}

// resolveExtern resolves a declaration to its implementation —
// registered extern first, generic intrinsic fallback — memoizing the
// name lookup per declaration node in externBy.
func (it *Interp) resolveExtern(f *ir.Func) (ExternFn, bool) {
	if fn, ok := it.externBy[f]; ok {
		return fn, true
	}
	fn, ok := it.externs[f.Nam]
	if !ok {
		fn, ok = genericIntrinsic(f.Nam)
	}
	if !ok {
		return nil, false
	}
	if it.externBy == nil {
		it.externBy = map[*ir.Func]ExternFn{}
	}
	it.externBy[f] = fn
	return fn, true
}

// HasExtern reports whether name has a registered implementation.
func (it *Interp) HasExtern(name string) bool {
	_, ok := it.externs[name]
	return ok
}

// GlobalAddr returns the base address of a module global.
func (it *Interp) GlobalAddr(g *ir.Global) uint64 { return it.globals[g] }

// GlobalAddrByName returns the base address of the named global.
func (it *Interp) GlobalAddrByName(name string) (uint64, bool) {
	for g, a := range it.globals {
		if g.Nam == name {
			return a, true
		}
	}
	return 0, false
}

// Run executes the named function with args and returns its result.
func (it *Interp) Run(name string, args ...Value) (Value, *Trap) {
	f := it.Mod.Func(name)
	if f == nil {
		return Value{}, trapf(TrapHalt, "no such function @%s", name)
	}
	return it.Call(f, args)
}

// Call executes f with args.
func (it *Interp) Call(f *ir.Func, args []Value) (ret Value, tr *Trap) {
	if f.IsDecl {
		fn, ok := it.resolveExtern(f)
		if !ok {
			return Value{}, trapf(TrapHalt, "unresolved external @%s", f.Nam)
		}
		return fn(it, args)
	}
	if it.depth++; it.depth > it.maxDepth {
		it.depth--
		return Value{}, trapf(TrapStack, "call depth %d at @%s", it.depth, f.Nam)
	}
	var fr *frame
	defer func() {
		it.depth--
		if fr != nil {
			it.putFrame(fr)
		}
		// Top-level return: publish batched counters and record a trap
		// outcome, so attached telemetry costs nothing per instruction.
		if it.depth == 0 && it.metrics != nil {
			it.FlushMetrics()
			if tr != nil && it.metrics.Traps != nil {
				it.metrics.Traps.Inc()
			}
		}
	}()

	if len(args) != len(f.Params) {
		return Value{}, trapf(TrapHalt, "@%s: got %d args, want %d",
			f.Nam, len(args), len(f.Params))
	}
	if it.engine != nil {
		if v, etr, ok := it.engine.CallCompiled(it, f, args); ok {
			return v, etr
		}
	}
	fr = it.getFrame(args)

	cur := f.Entry()
	var prev *ir.Block
	for {
		// Evaluate phis as a parallel copy.
		phis := cur.Phis()
		if len(phis) > 0 {
			tmp := it.getOps(len(phis))
			for i, phi := range phis {
				v, tr := it.phiIncoming(fr, phi, prev)
				if tr != nil {
					it.putOps(tmp)
					return Value{}, it.locate(tr, phi)
				}
				tmp[i] = v
			}
			for i, phi := range phis {
				fr.vals[phi] = tmp[i]
				it.account(phi)
				if it.rec != nil {
					it.rec.Retire(phi, it.DynInstrs, tmp[i])
				}
			}
			it.putOps(tmp)
			if tr := it.checkBudget(); tr != nil {
				return Value{}, it.locate(tr, phis[0])
			}
		}

		for _, in := range cur.Instrs[len(phis):] {
			it.account(in)
			if it.DynInstrs&1023 == 0 {
				if tr := it.checkBudget(); tr != nil {
					return Value{}, it.locate(tr, in)
				}
			}
			switch in.Op {
			case ir.OpBr:
				prev, cur = cur, in.Succs[0]
				goto nextBlock
			case ir.OpCondBr:
				c, tr := it.eval(fr, in.Operand(0))
				if tr != nil {
					return Value{}, it.locate(tr, in)
				}
				if c.Bool() {
					prev, cur = cur, in.Succs[0]
				} else {
					prev, cur = cur, in.Succs[1]
				}
				goto nextBlock
			case ir.OpRet:
				if len(in.Operands()) == 0 {
					return Value{}, nil
				}
				v, tr := it.eval(fr, in.Operand(0))
				return v, it.locate(tr, in)
			case ir.OpUnreachable:
				return Value{}, it.locate(trapf(TrapHalt, "reached unreachable in @%s", f.Nam), in)
			default:
				v, tr := it.execInstr(fr, in)
				if tr != nil {
					return Value{}, it.locate(tr, in)
				}
				if !in.Ty.IsVoid() {
					fr.vals[in] = v
				}
				if it.rec != nil {
					it.rec.Retire(in, it.DynInstrs, v)
				}
			}
		}
		return Value{}, trapf(TrapHalt, "block %s fell through", cur.Nam)
	nextBlock:
	}
}

type frame struct {
	vals   map[*ir.Instr]Value
	params []Value
}

// getFrame pops a recycled call frame (or builds one) with args copied
// into its params.
func (it *Interp) getFrame(args []Value) *frame {
	var fr *frame
	if n := len(it.frames); n > 0 {
		fr = it.frames[n-1]
		it.frames[n-1] = nil
		it.frames = it.frames[:n-1]
	} else {
		fr = &frame{vals: make(map[*ir.Instr]Value, 64)}
	}
	fr.params = append(fr.params[:0], args...)
	return fr
}

// putFrame drops a frame's value references and returns it to the pool.
func (it *Interp) putFrame(fr *frame) {
	clear(fr.vals)
	for i := range fr.params {
		fr.params[i] = Value{}
	}
	fr.params = fr.params[:0]
	it.frames = append(it.frames, fr)
}

// getOps pops a recycled operand buffer of length n. The buffers are
// scratch for one instruction: every execInstr path must return them
// with putOps once the result value has been built (results never alias
// the buffer itself, only the Bits payloads of live values).
func (it *Interp) getOps(n int) []Value {
	if m := len(it.ops); m > 0 {
		buf := it.ops[m-1]
		it.ops[m-1] = nil
		it.ops = it.ops[:m-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	if n < 4 {
		return make([]Value, n, 4)
	}
	return make([]Value, n)
}

// putOps drops the buffer's value references and returns it to the pool.
func (it *Interp) putOps(ops []Value) {
	for i := range ops {
		ops[i] = Value{}
	}
	it.ops = append(it.ops, ops[:0])
}

// locate stamps tr with the provenance of the instruction that was
// retiring when it fired. The innermost frame wins: once Func is set,
// outer frames unwinding the same trap leave it untouched.
func (it *Interp) locate(tr *Trap, in *ir.Instr) *Trap {
	if tr == nil || tr.Func != "" || in == nil || in.Parent == nil {
		return tr
	}
	tr.Func = in.Parent.Func.Nam
	tr.Block = in.Parent.Nam
	tr.Instr = in.String()
	tr.Dyn = it.DynInstrs
	return tr
}

// Detect records a detector firing, stamped with the current dynamic
// instruction count. Detector runtimes must use this rather than append
// to Detections directly so propagation tracing can compute
// time-to-detection.
func (it *Interp) Detect(msg string) {
	it.Detections = append(it.Detections, msg)
	it.DetectionDyns = append(it.DetectionDyns, it.DynInstrs)
}

func (it *Interp) account(in *ir.Instr) {
	it.DynInstrs++
	if in.IsVectorInstr() {
		it.DynVector++
	}
	if it.prof != nil {
		it.prof.Account(in)
	}
}

func (it *Interp) checkBudget() *Trap {
	if it.hb != nil {
		it.hb(it.DynInstrs)
	}
	if it.DynInstrs > it.budget {
		return trapf(TrapBudget, "executed %d instructions", it.DynInstrs)
	}
	return nil
}

func (it *Interp) phiIncoming(fr *frame, phi *ir.Instr, prev *ir.Block) (Value, *Trap) {
	for i, b := range phi.Succs {
		if b == prev {
			return it.eval(fr, phi.Operand(i))
		}
	}
	return Value{}, trapf(TrapHalt, "phi %%%s: no incoming for block %v", phi.Nam, prev)
}

// eval resolves an operand to its runtime value.
func (it *Interp) eval(fr *frame, v ir.Value) (Value, *Trap) {
	switch x := v.(type) {
	case *ir.Const:
		return ConstValue(x), nil
	case *ir.Param:
		return fr.params[x.Index], nil
	case *ir.Instr:
		val, ok := fr.vals[x]
		if !ok {
			return Value{}, trapf(TrapHalt, "use of undefined value %%%s", x.Nam)
		}
		return val, nil
	case *ir.Global:
		return PtrValue(x.Type(), it.globals[x]), nil
	}
	return Value{}, trapf(TrapHalt, "unsupported operand %T", v)
}

func (it *Interp) evalN(fr *frame, in *ir.Instr) ([]Value, *Trap) {
	out := it.getOps(in.NumOperands())
	for i := 0; i < in.NumOperands(); i++ {
		v, tr := it.eval(fr, in.Operand(i))
		if tr != nil {
			it.putOps(out)
			return nil, tr
		}
		out[i] = v
	}
	return out, nil
}

func (it *Interp) execInstr(fr *frame, in *ir.Instr) (Value, *Trap) {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpUDiv,
		ir.OpURem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		v, tr := intBin(in.Op, ops[0], ops[1])
		it.putOps(ops)
		return v, tr
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFRem:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		v := floatBin(in.Op, ops[0], ops[1])
		it.putOps(ops)
		return v, nil
	case ir.OpICmp, ir.OpFCmp:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		v := compare(in.Op, in.Pred, ops[0], ops[1])
		it.putOps(ops)
		return v, nil
	case ir.OpSelect:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		v := selectVal(ops[0], ops[1], ops[2])
		it.putOps(ops)
		return v, nil
	case ir.OpAlloca:
		addr, tr := it.Mem.Alloc(uint64(in.AllocElem.ByteSize() * in.AllocCount))
		if tr != nil {
			return Value{}, tr
		}
		return PtrValue(in.Ty, addr), nil
	case ir.OpLoad:
		p, tr := it.eval(fr, in.Operand(0))
		if tr != nil {
			return Value{}, tr
		}
		return it.Mem.Load(in.Ty, p.Uint())
	case ir.OpStore:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		str := it.Mem.Store(ops[0], ops[1].Uint())
		it.putOps(ops)
		return Value{}, str
	case ir.OpGEP:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		elem := in.Ty.Elem
		addr := ops[0].Uint() + uint64(ops[1].Int())*uint64(elem.ByteSize())
		it.putOps(ops)
		return PtrValue(in.Ty, addr), nil
	case ir.OpExtractElement:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		idx := int(ops[1].Int())
		if idx < 0 || idx >= len(ops[0].Bits) {
			return Value{}, trapf(TrapBadIndex, "extractelement lane %d of %d",
				idx, len(ops[0].Bits))
		}
		v := Scalar(in.Ty, ops[0].Bits[idx])
		it.putOps(ops)
		return v, nil
	case ir.OpInsertElement:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		idx := int(ops[2].Int())
		if idx < 0 || idx >= len(ops[0].Bits) {
			return Value{}, trapf(TrapBadIndex, "insertelement lane %d of %d",
				idx, len(ops[0].Bits))
		}
		out := ops[0].Clone()
		out.Bits[idx] = ops[1].Bits[0]
		it.putOps(ops)
		return out, nil
	case ir.OpShuffleVector:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		n := ops[0].Lanes()
		out := Zero(in.Ty)
		for i, mi := range in.ShuffleMask {
			switch {
			case mi < 0:
				out.Bits[i] = 0 // undef lane
			case mi < n:
				out.Bits[i] = ops[0].Bits[mi]
			default:
				out.Bits[i] = ops[1].Bits[mi-n]
			}
		}
		it.putOps(ops)
		return out, nil
	case ir.OpPhi:
		return Value{}, trapf(TrapHalt, "phi executed outside block entry")
	case ir.OpCall:
		ops, tr := it.evalN(fr, in)
		if tr != nil {
			return Value{}, tr
		}
		v, tr := it.Call(in.Callee, ops)
		it.putOps(ops)
		return v, tr
	default:
		if in.Op.IsCast() {
			v, tr := it.eval(fr, in.Operand(0))
			if tr != nil {
				return Value{}, tr
			}
			return castVal(in.Op, v, in.Ty), nil
		}
		return Value{}, trapf(TrapHalt, "unimplemented opcode %s", in.Op)
	}
}

func intBin(op ir.Op, a, b Value) (Value, *Trap) {
	out := Zero(a.Ty)
	if tr := intBinInto(out, op, a, b); tr != nil {
		return Value{}, tr
	}
	return out, nil
}

// intBinInto computes a lane-wise integer binary op into out, whose
// Bits must already hold one word per lane. Every lane is written (no
// stale data survives), so out may come from recycled storage.
func intBinInto(out Value, op ir.Op, a, b Value) *Trap {
	bits := a.Ty.ScalarBits()
	for i := range a.Bits {
		x, y := a.Bits[i], b.Bits[i]
		sx, sy := ir.SignExtend(x, bits), ir.SignExtend(y, bits)
		var r uint64
		switch op {
		case ir.OpAdd:
			r = x + y
		case ir.OpSub:
			r = x - y
		case ir.OpMul:
			r = x * y
		case ir.OpSDiv, ir.OpSRem:
			if sy == 0 {
				return trapf(TrapDivZero, "%s by zero", op)
			}
			if sx == minIntFor(bits) && sy == -1 {
				return trapf(TrapDivOverflow, "%d %s -1", sx, op)
			}
			if op == ir.OpSDiv {
				r = uint64(sx / sy)
			} else {
				r = uint64(sx % sy)
			}
		case ir.OpUDiv, ir.OpURem:
			if y == 0 {
				return trapf(TrapDivZero, "%s by zero", op)
			}
			if op == ir.OpUDiv {
				r = x / y
			} else {
				r = x % y
			}
		case ir.OpAnd:
			r = x & y
		case ir.OpOr:
			r = x | y
		case ir.OpXor:
			r = x ^ y
		case ir.OpShl:
			r = x << (y % uint64(bits))
		case ir.OpLShr:
			r = x >> (y % uint64(bits))
		case ir.OpAShr:
			r = uint64(sx >> (y % uint64(bits)))
		}
		out.Bits[i] = ir.TruncateToWidth(r, bits)
	}
	return nil
}

func minIntFor(bits int) int64 {
	if bits >= 64 {
		return math.MinInt64
	}
	return -(1 << uint(bits-1))
}

func floatBin(op ir.Op, a, b Value) Value {
	out := Zero(a.Ty)
	floatBinInto(out, op, a, b)
	return out
}

// floatBinInto computes a lane-wise float binary op into out; every
// lane is written.
func floatBinInto(out Value, op ir.Op, a, b Value) {
	for i := range a.Bits {
		x, y := a.LaneFloat(i), b.LaneFloat(i)
		var r float64
		switch op {
		case ir.OpFAdd:
			r = x + y
		case ir.OpFSub:
			r = x - y
		case ir.OpFMul:
			r = x * y
		case ir.OpFDiv:
			r = x / y // IEEE: ±Inf/NaN, no trap
		case ir.OpFRem:
			r = math.Mod(x, y)
		}
		if a.Ty.Scalar() == ir.F32 {
			r = float64(float32(r))
		}
		out.SetLaneFloat(i, r)
	}
}

func compare(op ir.Op, pred ir.Pred, a, b Value) Value {
	n := a.Lanes()
	var ty *ir.Type = ir.I1
	if a.Ty.IsVector() {
		ty = ir.Vec(ir.I1, n)
	}
	out := Zero(ty)
	compareInto(out, op, pred, a, b)
	return out
}

// compareInto computes a lane-wise icmp/fcmp into out (i1 lanes); every
// lane is written.
func compareInto(out Value, op ir.Op, pred ir.Pred, a, b Value) {
	n := a.Lanes()
	bits := a.Ty.ScalarBits()
	for i := 0; i < n; i++ {
		var res bool
		if op == ir.OpICmp {
			sx, sy := ir.SignExtend(a.Bits[i], bits), ir.SignExtend(b.Bits[i], bits)
			ux, uy := a.Bits[i], b.Bits[i]
			switch pred {
			case ir.IntEQ:
				res = ux == uy
			case ir.IntNE:
				res = ux != uy
			case ir.IntSLT:
				res = sx < sy
			case ir.IntSLE:
				res = sx <= sy
			case ir.IntSGT:
				res = sx > sy
			case ir.IntSGE:
				res = sx >= sy
			case ir.IntULT:
				res = ux < uy
			case ir.IntULE:
				res = ux <= uy
			case ir.IntUGT:
				res = ux > uy
			case ir.IntUGE:
				res = ux >= uy
			}
		} else {
			x, y := a.LaneFloat(i), b.LaneFloat(i)
			switch pred {
			case ir.FloatOEQ:
				res = x == y
			case ir.FloatONE:
				res = x != y && !math.IsNaN(x) && !math.IsNaN(y)
			case ir.FloatUNE:
				res = x != y
			case ir.FloatOLT:
				res = x < y
			case ir.FloatOLE:
				res = x <= y
			case ir.FloatOGT:
				res = x > y
			case ir.FloatOGE:
				res = x >= y
			}
		}
		if res {
			out.Bits[i] = 1
		} else {
			out.Bits[i] = 0
		}
	}
}

func selectVal(c, t, f Value) Value {
	if c.Ty == ir.I1 {
		if c.Bool() {
			return t.Clone()
		}
		return f.Clone()
	}
	out := Zero(t.Ty)
	selectInto(out, c, t, f)
	return out
}

// selectInto computes select into out (scalar condition copies the
// chosen side; vector condition blends lane-wise); every lane is
// written.
func selectInto(out Value, c, t, f Value) {
	if c.Ty == ir.I1 {
		if c.Bool() {
			copy(out.Bits, t.Bits)
		} else {
			copy(out.Bits, f.Bits)
		}
		return
	}
	for i := range out.Bits {
		if c.Bits[i]&1 != 0 {
			out.Bits[i] = t.Bits[i]
		} else {
			out.Bits[i] = f.Bits[i]
		}
	}
}

func castVal(op ir.Op, v Value, to *ir.Type) Value {
	out := Zero(to)
	castInto(out, op, v, to)
	return out
}

// castInto computes a cast into out; every lane is written.
func castInto(out Value, op ir.Op, v Value, to *ir.Type) {
	fromS, toS := v.Ty.Scalar(), to.Scalar()
	for i := range v.Bits {
		switch op {
		case ir.OpTrunc:
			out.Bits[i] = ir.TruncateToWidth(v.Bits[i], toS.Bits)
		case ir.OpZExt:
			out.Bits[i] = v.Bits[i]
		case ir.OpSExt:
			out.Bits[i] = ir.TruncateToWidth(uint64(ir.SignExtend(v.Bits[i], fromS.Bits)), toS.Bits)
		case ir.OpFPTrunc:
			out.Bits[i] = uint64(math.Float32bits(float32(math.Float64frombits(v.Bits[i]))))
		case ir.OpFPExt:
			out.Bits[i] = math.Float64bits(float64(math.Float32frombits(uint32(v.Bits[i]))))
		case ir.OpSIToFP:
			f := float64(ir.SignExtend(v.Bits[i], fromS.Bits))
			if toS == ir.F32 {
				out.Bits[i] = uint64(math.Float32bits(float32(f)))
			} else {
				out.Bits[i] = math.Float64bits(f)
			}
		case ir.OpFPToSI:
			var f float64
			if fromS == ir.F32 {
				f = float64(math.Float32frombits(uint32(v.Bits[i])))
			} else {
				f = math.Float64frombits(v.Bits[i])
			}
			out.Bits[i] = ir.TruncateToWidth(uint64(clampToInt(f)), toS.Bits)
		case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
			out.Bits[i] = ir.TruncateToWidth(v.Bits[i], toS.ScalarBits())
		}
	}
}

// clampToInt converts like x86 cvttss2si: NaN/overflow produce the
// "integer indefinite" value (min int64) rather than UB.
func clampToInt(f float64) int64 {
	if math.IsNaN(f) {
		return math.MinInt64
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}

// DumpState formats a deterministic execution summary: the headline
// counters on the first line, then one line per module global sorted by
// name with its address and leading memory contents. Two interpreters
// that executed identically produce byte-identical dumps, so trace-diff
// tests can compare them directly.
func (it *Interp) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dyn=%d vec=%d depth=%d segments=%d out=%dB detections=%d\n",
		it.DynInstrs, it.DynVector, it.depth, it.Mem.Allocated(),
		it.Output.Len(), len(it.Detections))

	globals := make([]*ir.Global, 0, len(it.globals))
	for g := range it.globals {
		globals = append(globals, g)
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].Nam < globals[j].Nam })

	const maxDump = 64 // bytes of contents shown per global
	for _, g := range globals {
		addr := it.globals[g]
		size := uint64(g.Elem.ByteSize() * g.Count)
		fmt.Fprintf(&b, "global @%s %s x%d @%#x = ", g.Nam, g.Elem, g.Count, addr)
		n := size
		if n > maxDump {
			n = maxDump
		}
		if data, tr := it.Mem.ReadBytes(addr, n); tr == nil {
			fmt.Fprintf(&b, "%x", data)
		} else {
			b.WriteString("<unreadable>")
		}
		if size > maxDump {
			fmt.Fprintf(&b, "... (%d bytes)", size)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
