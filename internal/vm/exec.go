package vm

import (
	"fmt"

	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// getOperand resolves an operand ref against the frame: registers for
// non-negative refs, the constant pool for negative ones.
// sx sign-extends an index payload by its precomputed shift (see
// vinstr.idxSh); identical to ir.SignExtend at the operand's width.
func sx(bits uint64, sh uint8) int64 { return int64(bits<<sh) >> sh }

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
// Values are immutable once published (the interp package's producers
// all build fresh results; bit flips clone before flipping), so the
// frame never clones constants or operands. When no recorder watches
// the value stream, result lane storage comes from the
// machine's frame arena — marked at entry, released at exit — and every
// operation routes through the interp package's Into kernels, which
// write all lanes of the recycled storage. The return value is cloned
// out of the arena before release; everything else the frame produced
// is dead at exit (memory stores copy bytes, externs consume arguments
// eagerly).
func (m *Machine) CallCompiled(it *interp.Interp, f *ir.Func, args []interp.Value) (interp.Value, *interp.Trap, bool) {
	code := m.prog.fns[f]
	if code == nil {
		return interp.Value{}, nil, false
	}

	regs := m.getRegs(code.nregs)
	defer m.putRegs(regs)
	copy(regs, args)
	for _, gs := range code.globals {
		// Global addresses are per-instance (Reset reallocates), so they
		// materialize at frame entry rather than living in the const pool.
		regs[gs.reg] = interp.PtrValue(gs.ty, it.GlobalAddr(gs.g))
	}

	consts := code.consts
	rec := it.Recorder()
	prof := it.Profiler()
	fprof, _ := prof.(interp.FusedProfiler)
	// fastFused: fused superinstructions and site clusters may account
	// in bulk only when no recorder observes the per-instruction
	// schedule and the profiler — if any — understands fused groups.
	fastFused := rec == nil && (prof == nil || fprof != nil)
	// useArena: the recorder is the only sink that may retain result
	// values beyond the frame; without it, results live at most until
	// the frame returns and the arena recycles their storage wholesale.
	// watched is its complement, hoisted so the hot loop skips the
	// finish call entirely when nobody retires instructions.
	useArena := rec == nil
	watched := !useArena
	// sites: the bound injection plan, which vSite asks to retire whole
	// clusters; nil (no injection runtime) keeps every cluster on its
	// per-instruction path.
	sites := it.SitePlan()
	ar := &m.arena
	if useArena {
		mk := ar.mark()
		defer ar.release(mk)
	}
	// alloc returns result storage for one value: recycled arena words
	// in arena mode (the Into kernels overwrite every lane), a fresh
	// zeroed heap value otherwise.
	alloc := func(ty *ir.Type, nw int32) interp.Value {
		if useArena {
			return interp.Value{Ty: ty, Bits: ar.alloc(int(nw))}
		}
		return interp.Zero(ty)
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
	// finish emits the retirement event of a non-terminator instruction.
	finish := func(in *ir.Instr, val interp.Value) {
		rec.Retire(in, it.DynInstrs, val)
	}
	// runMoves executes a sequenced edge bundle (the eliminated phis'
	// parallel copy for the taken edge).
	runMoves := func(moves []move) {
		for _, mv := range moves {
			if mv.src >= 0 {
				regs[mv.dst] = regs[mv.src]
			} else {
				regs[mv.dst] = consts[^mv.src]
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
			r := alloc(v.ty, v.nw)
			if tr := interp.IntBinInto(r, v.irop,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b)); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
			interp.FloatBinInto(r, v.irop,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
			interp.CompareInto(r, v.irop, v.pred,
				getOperand(regs, consts, v.a), getOperand(regs, consts, v.b))
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
			interp.SelectInto(r, getOperand(regs, consts, v.a),
				getOperand(regs, consts, v.b), getOperand(regs, consts, v.c))
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
			interp.CastInto(r, v.irop, getOperand(regs, consts, v.a), v.ty)
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, 1)
			r.Bits[0] = addr
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
			if tr := it.Mem.LoadInto(r, getOperand(regs, consts, v.a).Uint()); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, 1)
			r.Bits[0] = addr
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, 1)
			r.Bits[0] = vec.Bits[idx]
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
			copy(r.Bits, vec.Bits)
			r.Bits[idx] = elem.Bits[0]
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			r := alloc(v.ty, v.nw)
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
			regs[v.dst] = r
			if watched {
				finish(v.in, r)
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
			argv := m.getArgs(len(v.args))
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
				r, tr = it.Call(v.callee, argv)
			}
			m.putArgs(argv)
			if tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in), true
			}
			if v.dst >= 0 {
				regs[v.dst] = r
			}
			if watched {
				finish(v.in, r)
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
			if useArena && v.a >= 0 {
				// The only value that outlives the frame: clone it off the
				// arena before the deferred release recycles its storage.
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
				r := alloc(v.ty, v.nw)
				if tr := it.Mem.LoadInto(r, addr); tr != nil {
					return interp.Value{}, it.LocateTrap(tr, v.in2), true
				}
				regs[v.dst] = r
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
			r := alloc(v.ty, v.nw)
			if tr := it.Mem.LoadInto(r, addr); tr != nil {
				return interp.Value{}, it.LocateTrap(tr, v.in2), true
			}
			regs[v.dst] = r
			if watched {
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
				cond := alloc(v.ty, 1)
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
			cond := interp.CompareOp(v.irop, v.pred,
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
			// cluster's result is then its unchanged input: values are
			// immutable, so publishing it allocates nothing.
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
					regs[v.dst] = getOperand(regs, consts, v.a)
					pc = v.t0
					break
				}
			}
			// Fallback: the cluster's own bytecode, lane by lane.
			pc++

		case vSiteEnd:
			clear(regs[v.a:v.b])
			pc++

		default:
			// Unknown opcode: compiler bug. Decline defensively so the
			// tree-walker provides the authoritative behavior.
			return interp.Value{}, nil, false
		}
	}
}
