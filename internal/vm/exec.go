package vm

import (
	"fmt"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// sx sign-extends an index payload by its precomputed shift (see
// vinstr.idxSh); identical to ir.SignExtend at the operand's width.
func sx(bits uint64, sh uint8) int64 { return int64(bits<<sh) >> sh }

// getOperand resolves an operand ref against the frame: registers for
// non-negative refs, the constant pool for negative ones.
func getOperand(regs, consts []interp.Value, ref int32) interp.Value {
	if ref >= 0 {
		return regs[ref]
	}
	return consts[^ref]
}

// CallCompiled implements interp.Engine: it executes f's bytecode body
// against it's observable state, or declines (ok == false) when f was
// not lowered so the interpreter tree-walks it.
//
// The loop replays the tree-walker's exact observable schedule. Every
// instruction — phis and terminators included — bumps DynInstrs (and
// DynVector when vectoring) before it executes; non-phi instructions
// check the budget when DynInstrs crosses a 1024 boundary; phi blocks
// check it once, unconditionally, located at the first phi. Traps are
// stamped with provenance through LocateTrap at the same instruction
// the tree-walker would stamp.
//
// Every register owns fixed lane words in its frame, carved from the
// machine's stacks at entry and popped at exit, and every producer
// writes its result into its destination's own words through the
// interp package's Into kernels, which write all lanes. That is sound
// because no two registers share mutable storage: phi edge moves, the
// vSite fast path and call results copy words rather than share them,
// and parameters share the caller's arguments, which nothing writes
// while the callee runs. A callee reached through vCall returns a value
// still in its popped frame, which the caller copies at once; any other
// caller gets a clone. With a recorder attached — the only sink that
// retains values — every published value is a fresh allocation instead,
// and moves and call results share it.
func (m *Machine) CallCompiled(it *interp.Interp, f *ir.Func, args []interp.Value) (interp.Value, *interp.Trap, bool) {
	owned := m.retOwned
	m.retOwned = false
	code := m.prog.fns[f]
	if code == nil {
		return interp.Value{}, nil, false
	}

	rec := it.Recorder()
	prof := it.Profiler()
	fprof, _ := prof.(interp.FusedProfiler)
	// fastFused: fused superinstructions and site clusters may account
	// in bulk only when no recorder observes the per-instruction
	// schedule and the profiler — if any — understands fused groups.
	fastFused := rec == nil && (prof == nil || fprof != nil)
	// watched: a recorder retires every instruction and may keep the
	// values, so each result is published as a fresh allocation.
	watched := rec != nil
	// sites: the bound injection plan, which vSite asks to retire whole
	// clusters; nil (no injection runtime) keeps every cluster on its
	// per-instruction path.
	sites := it.SitePlan()

	vsp, wsp := m.vsp, m.wsp
	defer func() { m.vsp, m.wsp = vsp, wsp }()
	regs, words := m.carve(code.nparams+len(code.slots), code.nwords)
	copy(regs, args)
	for i, s := range code.slots {
		regs[code.nparams+i] = interp.Value{Ty: s.ty, Bits: words[s.off : s.off+s.n : s.off+s.n]}
	}
	for _, gs := range code.globals {
		// Global addresses are per-instance (Reset reallocates), so they
		// materialize at frame entry rather than living in the const pool.
		if watched {
			regs[gs.reg] = interp.PtrValue(gs.g.Type(), it.GlobalAddr(gs.g))
		} else {
			regs[gs.reg].Bits[0] = it.GlobalAddr(gs.g)
		}
	}
	consts := code.consts

	// out returns the storage v's result is computed into: its
	// destination register's own words, or a fresh value when watched.
	out := func(v *vinstr) interp.Value {
		if watched {
			return interp.Zero(v.ty)
		}
		return regs[v.dst]
	}
	// step accounts one non-phi instruction and runs the tree-walker's
	// boundary budget check, returning a located trap when over budget.
	step := func(in *ir.Instr, vec bool) *interp.Trap {
		it.DynInstrs++
		if vec {
			it.DynVector++
		}
		if prof != nil {
			prof.Account(in)
		}
		if it.DynInstrs&1023 == 0 {
			if tr := it.CheckBudget(); tr != nil {
				return it.LocateTrap(tr, in)
			}
		}
		return nil
	}
	// publish makes a watched result visible in its register and emits
	// its retirement event.
	publish := func(v *vinstr, r interp.Value) {
		regs[v.dst] = r
		rec.Retire(v.in, it.DynInstrs, r)
	}
	// finish emits the retirement event of a non-terminator instruction.
	finish := func(in *ir.Instr, val interp.Value) {
		rec.Retire(in, it.DynInstrs, val)
	}
	// runMoves executes a sequenced edge bundle (the eliminated phis'
	// parallel copy for the taken edge).
	runMoves := func(moves []move) {
		for _, mv := range moves {
			src := getOperand(regs, consts, mv.src)
			if watched {
				regs[mv.dst] = src
			} else {
				copy(regs[mv.dst].Bits, src.Bits)
			}
		}
	}

	pc := int32(0)
	for {
		v := &code.code[pc]
		switch v.op {

		case vPhiGroup:
			// The parallel copy already ran on the incoming edge; this
			// replays the tree-walker's per-phi accounting and retirement,
			// then its single unconditional budget check at the first phi.
			for i := range v.phis {
				p := &v.phis[i]
				it.DynInstrs++
				if p.vec {
					it.DynVector++
				}
				if prof != nil {
					prof.Account(p.in)
				}
				if rec != nil {
					rec.Retire(p.in, it.DynInstrs, regs[p.reg])
				}
			}
			if tr := it.CheckBudget(); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.phis[0].in), true
			}
			pc++

		case vIntBin:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := out(v)
			if tr := interp.IntBinInto(r, v.irop,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b)); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			if watched {
				publish(v, r)
			}
			pc++

		case vFloatBin:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := out(v)
			interp.FloatBinInto(r, v.irop,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			if watched {
				publish(v, r)
			}
			pc++

		case vCmp:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := out(v)
			interp.CompareInto(r, v.irop, v.pred,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			if watched {
				publish(v, r)
			}
			pc++

		case vSelect:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := out(v)
			interp.SelectInto(r, getOperand(regs, consts, v.a),
				getOperand(regs, consts, v.b), getOperand(regs, consts, v.c))
			if watched {
				publish(v, r)
			}
			pc++

		case vCast:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := out(v)
			interp.CastInto(r, v.irop, getOperand(regs, consts, v.a), v.ty)
			if watched {
				publish(v, r)
			}
			pc++

		case vAlloca:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			addr, tr := it.Mem.Alloc(v.elem)
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			r := out(v)
			r.Bits[0] = addr
			if watched {
				publish(v, r)
			}
			pc++

		case vLoad:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := out(v)
			if tr := it.Mem.LoadInto(r, getOperand(regs, consts, v.a).Uint()); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			if watched {
				publish(v, r)
			}
			pc++

		case vStore:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			tr := it.Mem.Store(getOperand(regs, consts, v.a),
				getOperand(regs, consts, v.b).Uint())
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			if watched {
				finish(v.in, interp.Value{})
			}
			pc++

		case vGEP:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			addr := getOperand(regs, consts, v.a).Uint() +
				uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
			r := out(v)
			r.Bits[0] = addr
			if watched {
				publish(v, r)
			}
			pc++

		case vExtract:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			vec := getOperand(regs, consts, v.a)
			idx := int(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))
			if idx < 0 || idx >= len(vec.Bits) {
				tr := &interp.Trap{Kind: interp.TrapBadIndex,
					Msg: fmt.Sprintf("extractelement lane %d of %d", idx, len(vec.Bits))}
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			r := out(v)
			r.Bits[0] = vec.Bits[idx]
			if watched {
				publish(v, r)
			}
			pc++

		case vInsert:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			vec := getOperand(regs, consts, v.a)
			elem := getOperand(regs, consts, v.b)
			idx := int(sx(getOperand(regs, consts, v.c).Bits[0], v.idxSh))
			if idx < 0 || idx >= len(vec.Bits) {
				tr := &interp.Trap{Kind: interp.TrapBadIndex,
					Msg: fmt.Sprintf("insertelement lane %d of %d", idx, len(vec.Bits))}
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			r := out(v)
			copy(r.Bits, vec.Bits)
			r.Bits[idx] = elem.Bits[0]
			if watched {
				publish(v, r)
			}
			pc++

		case vShuffle:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			a := getOperand(regs, consts, v.a)
			b := getOperand(regs, consts, v.b)
			n := a.Lanes()
			r := out(v)
			for i, mi := range v.mask {
				switch {
				case mi < 0:
					r.Bits[i] = 0 // undef lane
				case mi < n:
					r.Bits[i] = a.Bits[mi]
				default:
					r.Bits[i] = b.Bits[mi-n]
				}
			}
			if watched {
				publish(v, r)
			}
			pc++

		case vCall:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			top := m.vsp
			argv, _ := m.carve(len(v.args), 0)
			for i, ref := range v.args {
				// Shared, not cloned: callees never mutate argument
				// payloads (injection clones before flipping, externs map
				// lanes into fresh results).
				argv[i] = getOperand(regs, consts, ref)
			}
			var r interp.Value
			var tr *interp.Trap
			if v.c >= 0 {
				// Declaration callee: dispatch through the machine's dense
				// resolved-extern cache, skipping Call's map lookups. A nil
				// resolution falls back to Call for its diagnostic trap.
				if fn := m.externFor(it, v.c, v.callee); fn != nil {
					r, tr = fn(it, argv)
				} else {
					r, tr = it.Call(v.callee, argv)
				}
			} else {
				m.retOwned = true
				r, tr = it.Call(v.callee, argv)
				m.retOwned = false
			}
			m.vsp = top
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			if watched {
				if v.dst >= 0 {
					regs[v.dst] = r
				}
				finish(v.in, r)
			} else if v.dst >= 0 {
				// Copy the result home: it may be an argument (injectFault
				// passes an unflipped lane through) or still sit in the
				// callee's popped frame. A result that does not fit the
				// register's words becomes the register's own clone.
				if d := &regs[v.dst]; len(d.Bits) == len(r.Bits) {
					copy(d.Bits, r.Bits)
					d.Ty = r.Ty
				} else {
					*d = r.Clone()
				}
			}
			pc++

		case vBr:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			runMoves(v.m0)
			pc = v.t0

		case vCondBr:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			if getOperand(regs, consts, v.a).Bool() {
				runMoves(v.m0)
				pc = v.t0
			} else {
				runMoves(v.m1)
				pc = v.t1
			}

		case vRet:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			r := getOperand(regs, consts, v.a)
			if !watched && !owned && v.a >= 0 {
				// The caller is not a vCall that copies the result out of
				// the popped frame before its words are reused.
				r = r.Clone()
			}
			return r, nil, true

		case vRetVoid:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			return interp.Value{}, nil, true

		case vUnreachable:
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			tr := &interp.Trap{Kind: interp.TrapHalt,
				Msg: fmt.Sprintf("reached unreachable in @%s", f.Nam)}
			return interp.Value{}, it.LocateTrap(tr, v.in), true

		case vGEPLoad:
			// Fused lane-address + load. The fast path accounts both
			// constituents in bulk; it is legal only away from a budget
			// boundary (neither increment may skip a boundary check) and
			// when no recorder watches the per-instruction stream.
			if fastFused && it.DynInstrs&1023 < 1022 {
				it.DynInstrs += 2
				if v.vec {
					it.DynVector++
				}
				if v.vec2 {
					it.DynVector++
				}
				if fprof != nil {
					fprof.AccountFused(v.group)
				}
				addr := getOperand(regs, consts, v.a).Uint() +
					uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
				if tr := it.Mem.LoadInto(regs[v.dst], addr); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in2), true
				}
				pc++
				break
			}
			// Full-fidelity path: replay both constituents exactly.
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			addr := getOperand(regs, consts, v.a).Uint() +
				uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
			if watched {
				pv := interp.PtrValue(v.in.Ty, addr)
				regs[v.c] = pv
				finish(v.in, pv)
			}
			if tr := step(v.in2, v.vec2); tr != nil {
				return interp.Value{}, tr, true
			}
			r := out(v)
			if tr := it.Mem.LoadInto(r, addr); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in2), true
			}
			if watched {
				regs[v.dst] = r
				finish(v.in2, r)
			}
			pc++

		case vGEPStore:
			if fastFused && it.DynInstrs&1023 < 1022 {
				it.DynInstrs += 2
				if v.vec {
					it.DynVector++
				}
				if v.vec2 {
					it.DynVector++
				}
				if fprof != nil {
					fprof.AccountFused(v.group)
				}
				addr := getOperand(regs, consts, v.a).Uint() +
					uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
				if tr := it.Mem.Store(getOperand(regs, consts, v.c), addr); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in2), true
				}
				pc++
				break
			}
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			addr := getOperand(regs, consts, v.a).Uint() +
				uint64(sx(getOperand(regs, consts, v.b).Bits[0], v.idxSh))*v.elem
			if watched {
				pv := interp.PtrValue(v.ty, addr)
				regs[v.dst] = pv
				finish(v.in, pv)
			}
			if tr := step(v.in2, v.vec2); tr != nil {
				return interp.Value{}, tr, true
			}
			if tr := it.Mem.Store(getOperand(regs, consts, v.c), addr); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in2), true
			}
			if watched {
				finish(v.in2, interp.Value{})
			}
			pc++

		case vCmpBr:
			// Fused scalar mask-test + branch.
			if fastFused && it.DynInstrs&1023 < 1022 {
				it.DynInstrs += 2
				if v.vec {
					it.DynVector++
				}
				if v.vec2 {
					it.DynVector++
				}
				if fprof != nil {
					fprof.AccountFused(v.group)
				}
				cond := regs[v.dst]
				interp.CompareInto(cond, v.irop, v.pred,
					getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
				if cond.Bool() {
					runMoves(v.m0)
					pc = v.t0
				} else {
					runMoves(v.m1)
					pc = v.t1
				}
				break
			}
			it.DynInstrs++
			if v.vec {
				it.DynVector++
			}
			if prof != nil {
				prof.Account(v.in)
			}
			if it.DynInstrs&1023 == 0 {
				if tr := it.CheckBudget(); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in), true
				}
			}
			cond := out(v)
			interp.CompareInto(cond, v.irop, v.pred,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			if watched {
				finish(v.in, cond)
			}
			if tr := step(v.in2, v.vec2); tr != nil {
				return interp.Value{}, tr, true
			}
			if cond.Bool() {
				runMoves(v.m0)
				pc = v.t0
			} else {
				runMoves(v.m1)
				pc = v.t1
			}

		case vSite:
			// Fault-site cluster head. The fast path retires the whole
			// cluster when nothing observes its lanes one by one: no
			// per-instruction sink, no budget boundary inside it (so
			// budget traps and heartbeats land exactly), and a plan that
			// agrees none of its live lanes is the injection target. The
			// cluster's result is then its unchanged input, copied into
			// the result register's own words.
			n := uint64(len(v.group))
			if sites != nil && fastFused && (it.DynInstrs&1023)+n < 1024 {
				s := v.site
				live := s.live
				if s.masked {
					live = 0
					for _, w := range getOperand(regs, consts, v.b).Bits[:s.lanes] {
						if int64(w<<s.maskSh) < 0 {
							live++
						}
					}
				}
				if sites.SkipSites(live) {
					it.CountSiteVisits(live)
					it.DynInstrs += n
					it.DynVector += s.vec
					if fprof != nil {
						fprof.AccountFused(v.group)
					}
					copy(regs[v.dst].Bits, getOperand(regs, consts, v.a).Bits)
					pc = v.t0
					break
				}
			}
			// Fallback: the cluster's own bytecode, lane by lane.
			pc++

		default:
			// Unknown opcode: compiler bug. Decline defensively so the
			// tree-walker provides the authoritative behavior.
			return interp.Value{}, nil, false
		}
	}
}
