package vm

import (
	"strings"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// vop enumerates bytecode opcodes. The lowered form trades the
// tree-walker's per-instruction interface dispatch for a dense switch:
// generic opcodes carry the original ir.Op and route through the interp
// package's exported operation kernels, fused opcodes execute a whole
// profiler digram in one dispatch.
type vop uint8

const (
	vInvalid vop = iota
	vIntBin
	vFloatBin
	vCmp
	vSelect
	vCast
	vAlloca
	vLoad
	vStore
	vGEP
	vExtract
	vInsert
	vShuffle
	vCall
	vBr
	vCondBr
	vRet
	vRetVoid
	vUnreachable
	// vPhiGroup accounts a block's phi nodes. The parallel copy itself
	// has already happened on the incoming edge (vBr/vCondBr move
	// bundles); this opcode replays the tree-walker's observable phi
	// schedule: per-phi DynInstrs accounting and Retire in block order,
	// then one unconditional budget check located at the first phi.
	vPhiGroup
	// Fused superinstructions (see fusion in lower).
	vGEPLoad  // gep + load  : dst = mem[base + idx*elem]
	vGEPStore // gep + store : mem[base + idx*elem] = value
	vCmpBr    // scalar cmp + condbr : branch on compare without a visit
	// vSite heads one fault site's instrumentation cluster (see
	// matchSite). Its fast path retires the whole cluster in one
	// dispatch and jumps to t0; otherwise execution falls through into
	// the cluster's own per-instruction bytecode, which follows it.
	vSite
)

// A move copies one value into a register: the phi-elimination parallel
// copy, sequenced at compile time (lost-copy and swap safe — cycles are
// broken through the function's scratch register). src is an operand
// ref. Registers own their lane words, so a move copies the words into
// the phi's own; with a recorder attached, where every value is a fresh
// allocation, it shares the source instead.
type move struct {
	dst int32
	src int32
}

// phiSlot is one phi of a vPhiGroup: the original instruction for
// accounting/retire, its register, and its precomputed vector flag.
type phiSlot struct {
	in  *ir.Instr
	reg int32
	vec bool
}

// vinstr is one lowered instruction. Operand refs (a, b, c, args,
// move.src) address the register frame when >= 0 and the constant pool
// when negative (ref < 0 denotes consts[^ref]).
type vinstr struct {
	op   vop
	irop ir.Op
	pred ir.Pred

	dst     int32 // result register; -1 when void. vGEPStore: the gep's register.
	a, b, c int32 // operand refs

	ty   *ir.Type
	elem uint64 // gep element byte size; alloca total bytes
	// idxSh sign-extends the statically-typed index operand (gep index,
	// extract/insert lane) without re-deriving its scalar width per
	// execution: int64(bits<<idxSh)>>idxSh == ir.SignExtend(bits, w).
	idxSh uint8

	in  *ir.Instr // original instruction: accounting, traps, trace, retire
	vec bool      // precomputed in.IsVectorInstr()

	// Fused second constituent and the two-element accounting group
	// handed to interp.FusedProfiler implementations.
	in2   *ir.Instr
	vec2  bool
	group []*ir.Instr

	// Branch targets (bytecode pcs) and their edge move bundles.
	t0, t1 int32
	m0, m1 []move

	phis []phiSlot

	callee *ir.Func
	args   []int32

	mask []int

	site *siteShape // vSite: the cluster's static shape
}

// siteShape is what a vSite needs to retire its cluster in bulk. The
// cluster's instructions are the vSite's group; its input value (a)
// becomes the result of the cluster's last instruction (dst), and the
// mask operand (b) decides which lanes are live.
type siteShape struct {
	lanes  int    // lane visits: the vector length, 1 for a scalar site
	masked bool   // live lanes come from the mask operand's sign bits
	maskSh uint8  // 64 - mask element width: lane live iff int64(w<<maskSh) < 0
	live   uint64 // live lanes of an unmasked cluster (nonzero active constants)
	vec    uint64 // vector instructions in the cluster (its DynVector share)
}

// fnCode is one compiled function body.
type fnCode struct {
	fn      *ir.Func
	nparams int
	// slots lays out registers nparams and up: each owns words
	// [off, off+n) of the frame's nwords lane words.
	slots   []regSlot
	nwords  int
	consts  []interp.Value
	globals []globalSlot
	code    []vinstr
}

// regSlot is one register's storage in its frame: its type and its
// lane words. Parameters have none; they share the caller's arguments,
// which nothing writes while the callee runs.
type regSlot struct {
	ty     *ir.Type
	off, n int32
}

// globalSlot materializes one module global's address into a register
// at frame entry. Global addresses are per-interpreter state (they are
// reallocated on Reset), so they cannot live in the constant pool of a
// program shared across instances.
type globalSlot struct {
	reg int32
	g   *ir.Global
}

// compiler carries the per-function lowering state.
type compiler struct {
	f       *ir.Func
	code    *fnCode // separate from the compiler, whose maps die after lowering
	regOf   map[*ir.Instr]int32
	scratch int32
	constIx map[*ir.Const]int32
	globIx  map[*ir.Global]int32
	starts  map[*ir.Block]int32
	fixups  []fixup
	fused   map[string]int
	declIx  map[*ir.Func]int32 // program-wide dense extern-callee index
}

// fixup patches a branch target once every block's start pc is known.
type fixup struct {
	pc     int
	second bool // patch t1 instead of t0
	blk    *ir.Block
}

// compileFunc lowers f, reporting ok == false for shapes only the
// tree-walker's runtime diagnostics can describe faithfully: blocks
// without terminators ("block fell through"), phis outside the block
// head or in the entry block, and phis lacking an incoming for a
// predecessor. Those fall back to tree-walking.
func compileFunc(f *ir.Func, fused map[string]int, declIx map[*ir.Func]int32) (*fnCode, bool) {
	if len(f.Blocks) == 0 {
		return nil, false
	}
	ninstr := 0
	for _, b := range f.Blocks {
		ninstr += len(b.Instrs)
	}
	c := &compiler{
		f:       f,
		code:    &fnCode{fn: f, nparams: len(f.Params)},
		regOf:   make(map[*ir.Instr]int32, ninstr),
		constIx: map[*ir.Const]int32{},
		globIx:  map[*ir.Global]int32{},
		starts:  make(map[*ir.Block]int32, len(f.Blocks)),
		fused:   fused,
		declIx:  declIx,
	}

	// Register layout: parameters first (slot == Param.Index), then one
	// slot per value-producing instruction, then the move scratch (as
	// wide as the widest phi, the only values it parks), then any
	// globals the body references.
	c.code.slots = make([]regSlot, 0, ninstr+1)
	scratchW := 0
	for _, b := range f.Blocks {
		sawNonPhi := false
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && (sawNonPhi || b == f.Entry()) {
				return nil, false
			}
			if in.Op != ir.OpPhi {
				sawNonPhi = true
			} else {
				scratchW = max(scratchW, in.Ty.Lanes())
			}
			if !in.Ty.IsVoid() {
				c.regOf[in] = c.newReg(in.Ty, in.Ty.Lanes())
			}
		}
	}
	c.scratch = c.newReg(nil, scratchW)

	c.code.code = make([]vinstr, 0, codeLen(f))
	for _, b := range f.Blocks {
		c.starts[b] = int32(len(c.code.code))
		if !c.lowerBlock(b) {
			return nil, false
		}
	}
	for _, fx := range c.fixups {
		target, ok := c.starts[fx.blk]
		if !ok {
			return nil, false
		}
		if fx.second {
			c.code.code[fx.pc].t1 = target
		} else {
			c.code.code[fx.pc].t0 = target
		}
	}
	return c.code, true
}

// newReg appends a register owning n lane words and returns its slot.
func (c *compiler) newReg(ty *ir.Type, n int) int32 {
	c.code.slots = append(c.code.slots,
		regSlot{ty: ty, off: int32(c.code.nwords), n: int32(n)})
	c.code.nwords += n
	return int32(c.code.nparams + len(c.code.slots) - 1)
}

// codeLen returns the number of vinstrs lowerBlock emits for f: it
// walks every block the way lowerBlock does, so the bytecode is
// allocated once at its final size.
func codeLen(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		body := b.Instrs
		if len(body) > 0 && body[0].Op == ir.OpPhi {
			n++ // the block's vPhiGroup
			for len(body) > 0 && body[0].Op == ir.OpPhi {
				body = body[1:]
			}
		}
		for i := 0; i < len(body); i++ {
			n++
			if body[i].Op.IsTerminator() {
				break
			}
			if k := matchSite(body[i:]); k > 0 {
				n += k // the vSite heads the cluster's k vinstrs
				i += k - 1
				continue
			}
			if i+1 < len(body) && fusion(body[i], body[i+1]) != vInvalid {
				if body[i+1].Op.IsTerminator() {
					break
				}
				i++
			}
		}
	}
	return n
}

// ref resolves an operand to its slot: register for params and
// instruction results, pool index (encoded negative) for constants,
// and a frame-entry-materialized register for globals.
func (c *compiler) ref(v ir.Value) (int32, bool) {
	switch x := v.(type) {
	case *ir.Const:
		ix, ok := c.constIx[x]
		if !ok {
			ix = int32(len(c.code.consts))
			c.code.consts = append(c.code.consts, interp.ConstValue(x))
			c.constIx[x] = ix
		}
		return ^ix, true
	case *ir.Param:
		return int32(x.Index), true
	case *ir.Instr:
		r, ok := c.regOf[x]
		return r, ok
	case *ir.Global:
		r, ok := c.globIx[x]
		if !ok {
			r = c.newReg(x.Type(), 1)
			c.globIx[x] = r
			c.code.globals = append(c.code.globals, globalSlot{reg: r, g: x})
		}
		return r, true
	}
	return 0, false
}

func (c *compiler) emit(v vinstr) int {
	c.code.code = append(c.code.code, v)
	return len(c.code.code) - 1
}

// lowerBlock lowers one basic block: the phi accounting group, the
// straight-line body with digram fusion, and the terminator with its
// per-edge parallel-move bundles. Lowering stops at the first
// terminator — anything after it is unreachable under the tree-walker
// too.
func (c *compiler) lowerBlock(b *ir.Block) bool {
	phis := b.Phis()
	if len(phis) > 0 {
		g := vinstr{op: vPhiGroup}
		for _, phi := range phis {
			g.phis = append(g.phis, phiSlot{
				in: phi, reg: c.regOf[phi], vec: phi.IsVectorInstr(),
			})
		}
		c.emit(g)
	}

	body := b.Instrs[len(phis):]
	for i := 0; i < len(body); i++ {
		in := body[i]
		if in.Op.IsTerminator() {
			return c.lowerTerminator(b, in)
		}
		if n := matchSite(body[i:]); n > 0 {
			if !c.lowerSite(body[i : i+n : i+n]) {
				return false
			}
			i += n - 1
			continue
		}
		var next *ir.Instr
		if i+1 < len(body) {
			next = body[i+1]
		}
		used, ok := c.lowerInstr(b, in, next)
		if !ok {
			return false
		}
		if used {
			i++ // fused with next
			if next.Op.IsTerminator() {
				return true // the fused opcode carried the terminator
			}
		}
	}
	return false // no terminator: tree-walker's "block fell through"
}

// lowerInstr lowers one non-terminator instruction, fusing it with next
// when the pair matches a superinstruction pattern. Returns whether
// next was consumed.
func (c *compiler) lowerInstr(b *ir.Block, in, next *ir.Instr) (bool, bool) {
	v := vinstr{
		irop: in.Op, pred: in.Pred, ty: in.Ty,
		in: in, vec: in.IsVectorInstr(), dst: -1,
	}
	if r, ok := c.regOf[in]; ok {
		v.dst = r
	}

	// Digram fusion: adjacent single-use producer/consumer pairs from
	// the profiler's superinstruction candidate list. Fusing never
	// reorders accounting — the fused opcodes replay both constituents'
	// DynInstrs/budget/trace/retire schedule.
	if next != nil {
		switch fusion(in, next) {
		case vGEPLoad:
			if ok := c.fuseGEP(&v, in, next, vGEPLoad); ok {
				c.fused["gep+load"]++
				c.emit(v)
				return true, true
			}
		case vGEPStore:
			if ok := c.fuseGEP(&v, in, next, vGEPStore); ok {
				c.fused["gep+store"]++
				c.emit(v)
				return true, true
			}
		case vCmpBr:
			if ok := c.fuseCmpBr(b, &v, in, next); ok {
				c.fused["cmp+br"]++
				c.emit(v)
				return true, true
			}
		}
	}

	ok := c.lowerPlain(&v, in)
	if !ok {
		return false, false
	}
	c.emit(v)
	return false, true
}

// fusion returns the superinstruction the adjacent pair in, next lowers
// to, or vInvalid: in must be single-use and feed next directly.
func fusion(in, next *ir.Instr) vop {
	if in.NumUses() != 1 {
		return vInvalid
	}
	switch {
	case in.Op == ir.OpGEP && next.Op == ir.OpLoad && next.Operand(0) == in:
		return vGEPLoad
	case in.Op == ir.OpGEP && next.Op == ir.OpStore && next.Operand(1) == in:
		return vGEPStore
	case (in.Op == ir.OpICmp || in.Op == ir.OpFCmp) && in.Ty == ir.I1 &&
		next.Op == ir.OpCondBr && next.Operand(0) == in:
		return vCmpBr
	}
	return vInvalid
}

// lowerPlain fills v for a single unfused instruction.
func (c *compiler) lowerPlain(v *vinstr, in *ir.Instr) bool {
	setABC := func(n int) bool {
		refs := [3]*int32{&v.a, &v.b, &v.c}
		for i := 0; i < n; i++ {
			r, ok := c.ref(in.Operand(i))
			if !ok {
				return false
			}
			*refs[i] = r
		}
		return true
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem, ir.OpUDiv,
		ir.OpURem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		v.op = vIntBin
		return setABC(2)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFRem:
		v.op = vFloatBin
		return setABC(2)
	case ir.OpICmp, ir.OpFCmp:
		v.op = vCmp
		return setABC(2)
	case ir.OpSelect:
		v.op = vSelect
		return setABC(3)
	case ir.OpAlloca:
		v.op = vAlloca
		v.elem = uint64(in.AllocElem.ByteSize() * in.AllocCount)
		return true
	case ir.OpLoad:
		v.op = vLoad
		return setABC(1)
	case ir.OpStore:
		v.op = vStore
		return setABC(2)
	case ir.OpGEP:
		v.op = vGEP
		v.elem = uint64(in.Ty.Elem.ByteSize())
		v.idxSh = idxShift(in.Operand(1))
		return setABC(2)
	case ir.OpExtractElement:
		v.op = vExtract
		v.idxSh = idxShift(in.Operand(1))
		return setABC(2)
	case ir.OpInsertElement:
		v.op = vInsert
		v.idxSh = idxShift(in.Operand(2))
		return setABC(3)
	case ir.OpShuffleVector:
		v.op = vShuffle
		v.mask = in.ShuffleMask
		return setABC(2)
	case ir.OpCall:
		v.op = vCall
		v.callee = in.Callee
		if v.callee == nil {
			return false
		}
		// c is repurposed as the dense extern index for declaration
		// callees (-1 for defined functions, which route through Call).
		v.c = -1
		if v.callee.IsDecl {
			ix, ok := c.declIx[v.callee]
			if !ok {
				ix = int32(len(c.declIx))
				c.declIx[v.callee] = ix
			}
			v.c = ix
		}
		n := in.NumOperands()
		v.args = make([]int32, n)
		for i := 0; i < n; i++ {
			r, ok := c.ref(in.Operand(i))
			if !ok {
				return false
			}
			v.args[i] = r
		}
		return true
	default:
		if in.Op.IsCast() {
			v.op = vCast
			return setABC(1)
		}
		return false
	}
}

// lowerSite emits a vSite in front of the cluster's per-instruction
// bytecode, which stays in place as the fallback path. Each cluster
// instruction lowers unfused to exactly one vinstr.
func (c *compiler) lowerSite(cluster []*ir.Instr) bool {
	head, last := cluster[0], cluster[len(cluster)-1]
	in, ok1 := c.ref(head.Operand(0))
	dst, ok2 := c.regOf[last]
	if !ok1 || !ok2 {
		return false
	}
	s := &siteShape{lanes: 1}
	v := vinstr{op: vSite, a: in, dst: dst, group: cluster, site: s}
	if head.Op == ir.OpExtractElement {
		s.lanes = head.Operand(0).Type().Len
		if ext := cluster[1]; ext.Op == ir.OpExtractElement {
			mask, ok := c.ref(ext.Operand(0))
			if !ok {
				return false
			}
			v.b, s.masked = mask, true
			s.maskSh = 64 - uint8(ext.Ty.Scalar().Bits)
		}
	}
	for _, x := range cluster {
		if x.IsVectorInstr() {
			s.vec++
		}
		if x.Op == ir.OpCall {
			if k, ok := activeConst(x.Operand(1)); ok && k.Bits[0] != 0 {
				s.live++
			}
		}
	}
	pc := c.emit(v)
	for _, x := range cluster {
		if _, ok := c.lowerInstr(nil, x, nil); !ok {
			return false
		}
	}
	c.code.code[pc].t0 = int32(len(c.code.code))
	c.fused["site"]++
	return true
}

// matchSite returns the length of the fault-site instrumentation
// cluster core.Instrument emits that starts at body[0], or 0 when none
// does. A scalar or whole-register site is one call
//
//	r = call injectFault*(v, active, id)
//
// and a vector site with Vl lanes is one chain per lane L, threading
// cur (initially the site value v) through the lanes:
//
//	e = extractelement cur, L
//	[m = extractelement mask, L; c = icmp slt m, 0; a = zext c to i32]
//	r = call injectFault*(e, a or an active constant, id)
//	cur = insertelement cur, r, L
//
// Every intermediate value must be used only inside the cluster, so
// skipping the cluster leaves nothing unwritten that anyone reads. The
// match inspects operands and use counts only; it allocates nothing.
func matchSite(body []*ir.Instr) int {
	head := body[0]
	if head.Op == ir.OpCall {
		if !isInjectCall(head) {
			return 0
		}
		if _, ok := activeConst(head.Operand(1)); !ok {
			return 0
		}
		return 1
	}
	if head.Op != ir.OpExtractElement {
		return 0
	}
	vty := head.Operand(0).Type()
	if !vty.IsVector() {
		return 0
	}
	var mask ir.Value
	if len(body) > 1 && body[1].Op == ir.OpExtractElement && isLane(body[1].Operand(1), 0) {
		mask = body[1].Operand(0)
		// vSite reads the first Vl mask lanes.
		if mty := mask.Type(); !mty.IsVector() || mty.Len < vty.Len {
			return 0
		}
	}
	cur := head.Operand(0)
	p := 0
	for lane := 0; lane < vty.Len; lane++ {
		need := 3
		if mask != nil {
			need = 6
		}
		if len(body)-p < need {
			return 0
		}
		e := body[p]
		if e.Op != ir.OpExtractElement || e.Operand(0) != cur ||
			!isLane(e.Operand(1), lane) || e.NumUses() != 1 {
			return 0
		}
		p++
		var active ir.Value
		if mask != nil {
			m, cmp, z := body[p], body[p+1], body[p+2]
			if m.Op != ir.OpExtractElement || m.Operand(0) != mask ||
				!isLane(m.Operand(1), lane) || m.NumUses() != 1 ||
				cmp.Op != ir.OpICmp || cmp.Pred != ir.IntSLT ||
				cmp.Operand(0) != m || !isLane(cmp.Operand(1), 0) || cmp.NumUses() != 1 ||
				z.Op != ir.OpZExt || z.Operand(0) != cmp || z.NumUses() != 1 {
				return 0
			}
			active = z
			p += 3
		}
		call, ins := body[p], body[p+1]
		if !isInjectCall(call) || call.Operand(0) != e || call.NumUses() != 1 {
			return 0
		}
		if mask != nil {
			if call.Operand(1) != active {
				return 0
			}
		} else if _, ok := activeConst(call.Operand(1)); !ok {
			return 0
		}
		if ins.Op != ir.OpInsertElement || ins.Operand(0) != cur ||
			ins.Operand(1) != call || !isLane(ins.Operand(2), lane) {
			return 0
		}
		// An intermediate chain value feeds exactly the next lane's
		// extract and insert.
		if lane < vty.Len-1 && ins.NumUses() != 2 {
			return 0
		}
		cur = ins
		p += 2
	}
	return p
}

// isInjectCall reports whether in calls the injection runtime API with
// its three-operand signature.
func isInjectCall(in *ir.Instr) bool {
	return in.Op == ir.OpCall && in.Callee != nil && in.Callee.IsDecl &&
		strings.HasPrefix(in.Callee.Nam, "injectFault") && in.NumOperands() == 3
}

// isLane reports whether v is the integer constant lane.
func isLane(v ir.Value, lane int) bool {
	k, ok := v.(*ir.Const)
	return ok && k.Ty.IsInt() && !k.Undef && len(k.Bits) == 1 && k.Bits[0] == uint64(lane)
}

// activeConst reports whether v is a defined scalar integer constant,
// the active operand of an unmasked injection call.
func activeConst(v ir.Value) (*ir.Const, bool) {
	k, ok := v.(*ir.Const)
	return k, ok && k.Ty.IsInt() && !k.Undef && len(k.Bits) == 1
}

// fuseGEP fills v as a fused gep+load / gep+store superinstruction.
func (c *compiler) fuseGEP(v *vinstr, gep, mem *ir.Instr, op vop) bool {
	base, ok1 := c.ref(gep.Operand(0))
	idx, ok2 := c.ref(gep.Operand(1))
	if !ok1 || !ok2 {
		return false
	}
	v.op = op
	v.a, v.b = base, idx
	v.elem = uint64(gep.Ty.Elem.ByteSize())
	v.idxSh = idxShift(gep.Operand(1))
	v.in2, v.vec2 = mem, mem.IsVectorInstr()
	v.group = []*ir.Instr{gep, mem}
	if op == vGEPLoad {
		v.ty = mem.Ty
		v.c = c.regOf[gep] // materialized only when a recorder watches
		v.dst = c.regOf[mem]
	} else {
		val, ok := c.ref(mem.Operand(0))
		if !ok {
			return false
		}
		v.ty = gep.Ty
		v.c = val
		v.dst = c.regOf[gep]
	}
	return true
}

// idxShift returns the sign-extension shift for v's scalar bit width
// (0 for 64-bit-or-wider payloads, where no extension is needed).
func idxShift(v ir.Value) uint8 {
	b := v.Type().Scalar().Bits
	if b <= 0 || b >= 64 {
		return 0
	}
	return uint8(64 - b)
}

// fuseCmpBr fills v as a fused scalar-compare + conditional-branch
// superinstruction (the profiler's "mask test + branch" digram).
func (c *compiler) fuseCmpBr(b *ir.Block, v *vinstr, cmp, br *ir.Instr) bool {
	a, ok1 := c.ref(cmp.Operand(0))
	bb, ok2 := c.ref(cmp.Operand(1))
	if !ok1 || !ok2 {
		return false
	}
	m0, ok3 := c.edgeMoves(b, br.Succs[0])
	m1, ok4 := c.edgeMoves(b, br.Succs[1])
	if !ok3 || !ok4 {
		return false
	}
	v.op = vCmpBr
	v.a, v.b = a, bb
	v.in2, v.vec2 = br, br.IsVectorInstr()
	v.group = []*ir.Instr{cmp, br}
	v.m0, v.m1 = m0, m1
	c.fixups = append(c.fixups,
		fixup{pc: len(c.code.code), blk: br.Succs[0]},
		fixup{pc: len(c.code.code), second: true, blk: br.Succs[1]})
	return true
}

// lowerTerminator lowers the block's terminator with its edge bundles.
func (c *compiler) lowerTerminator(b *ir.Block, in *ir.Instr) bool {
	v := vinstr{
		irop: in.Op, ty: in.Ty, in: in, vec: in.IsVectorInstr(), dst: -1,
	}
	switch in.Op {
	case ir.OpBr:
		moves, ok := c.edgeMoves(b, in.Succs[0])
		if !ok {
			return false
		}
		v.op = vBr
		v.m0 = moves
		c.fixups = append(c.fixups, fixup{pc: len(c.code.code), blk: in.Succs[0]})
	case ir.OpCondBr:
		cond, ok := c.ref(in.Operand(0))
		if !ok {
			return false
		}
		m0, ok1 := c.edgeMoves(b, in.Succs[0])
		m1, ok2 := c.edgeMoves(b, in.Succs[1])
		if !ok1 || !ok2 {
			return false
		}
		v.op = vCondBr
		v.a = cond
		v.m0, v.m1 = m0, m1
		c.fixups = append(c.fixups,
			fixup{pc: len(c.code.code), blk: in.Succs[0]},
			fixup{pc: len(c.code.code), second: true, blk: in.Succs[1]})
	case ir.OpRet:
		if len(in.Operands()) == 0 {
			v.op = vRetVoid
		} else {
			r, ok := c.ref(in.Operand(0))
			if !ok {
				return false
			}
			v.op = vRet
			v.a = r
		}
	case ir.OpUnreachable:
		v.op = vUnreachable
	default:
		return false
	}
	c.emit(v)
	return true
}

// edgeMoves builds the sequenced parallel-move bundle for the edge
// b -> succ: one move per phi of succ, from the incoming value b
// contributes. The bundle runs after the branch decision and before
// control transfers, which makes critical edges safe without block
// splitting. Sequencing emits a move only once no other pending move
// still reads its destination; cycles (the swap problem) are broken by
// parking one destination in the scratch register (the lost-copy
// problem cannot arise: destinations are written exactly once).
func (c *compiler) edgeMoves(b *ir.Block, succ *ir.Block) ([]move, bool) {
	phis := succ.Phis()
	if len(phis) == 0 {
		return nil, true
	}
	pending := make([]move, 0, len(phis))
	for _, phi := range phis {
		src := int32(0)
		found := false
		for i, pred := range phi.Succs {
			if pred == b {
				r, ok := c.ref(phi.Operand(i))
				if !ok {
					return nil, false
				}
				src, found = r, true
				break
			}
		}
		if !found {
			return nil, false // tree-walker traps "no incoming" at runtime
		}
		dst := c.regOf[phi]
		if src == dst {
			continue // self-move: the loop-carried value is already home
		}
		pending = append(pending, move{dst: dst, src: src})
	}

	var out []move
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); {
			mv := pending[i]
			blocked := false
			for j, other := range pending {
				if j != i && other.src == mv.dst {
					blocked = true
					break
				}
			}
			if blocked {
				i++
				continue
			}
			out = append(out, mv)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
		}
		if !progress {
			// Every pending destination is still read by another move: a
			// cycle. Park one destination in scratch and retarget its
			// readers.
			parked := pending[0].dst
			out = append(out, move{dst: c.scratch, src: parked})
			for j := range pending {
				if pending[j].src == parked {
					pending[j].src = c.scratch
				}
			}
		}
	}
	return out, true
}
