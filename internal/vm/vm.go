// Package vm is the compiled execution backend: it lowers verified SSA
// functions to a flat, pre-resolved bytecode form — operand slots and
// branch targets resolved at compile time, phi nodes eliminated into
// parallel moves on edges, and fused superinstructions for the hot
// digram patterns surfaced by the execution profiler (lane address
// computation + load/store, scalar mask test + branch, and a whole
// fault-site instrumentation cluster) — and executes that form as a
// dense dispatch loop over recycled register frames.
//
// The backend is attached to an interpreter through the interp.Engine
// hook and executes against the interpreter's own observable state, so
// the full tree-walker contract is preserved exactly: identical
// outcomes, identical DynInstrs/DynVector accounting (phis and
// terminators included), the identical budget-check schedule, identical
// trap kinds/messages/provenance, and identical Recorder and Profiler
// event streams. A function the compiler cannot lower is simply
// declined at call time and tree-walked instead.
//
// Fault injection has one implementation, the injectFault* externs the
// instrumentation chain calls. The compiler puts a vSite op in front of
// each site's cluster of chains (see matchSite). When nothing observes
// the cluster lane by lane — no recorder, a profiler that accounts fused
// groups, no budget boundary inside it — vSite counts the live lanes
// from the mask and asks the plan bound through interp.SitePlan to
// retire them in bulk. The plan agrees unless the injection target lies
// among them or it keeps per-site visit counts; vSite then accounts the
// whole cluster, publishes its unchanged input as the result and jumps
// past it. Otherwise execution falls through into the cluster's own
// bytecode and every lane calls the runtime, so LaneSiteID attribution,
// dynamic site counting and bit flips stay byte-identical.
//
// The speedup comes from dispatch, not semantics: dense register frames
// replace the tree-walker's per-frame value map, operands are fetched
// by precomputed slot index instead of interface type switches, branch
// targets are program-counter jumps, and all arithmetic routes through
// the interp package's exported operation kernels so the two backends
// cannot drift bit-wise.
package vm

import (
	"vulfi/internal/interp"
	"vulfi/internal/ir"
)

// Program is an immutable compiled module: one bytecode body per
// lowerable defined function. A Program is safe for concurrent use by
// any number of Machines (campaign cells compile once and share the
// program across their worker instances).
type Program struct {
	fns map[*ir.Func]*fnCode

	// declIx assigns each declaration callee a dense index, so a Machine
	// can cache resolved extern implementations in a flat slice instead
	// of re-resolving through the interpreter's maps on every call.
	declIx map[*ir.Func]int32

	// fused counts emitted superinstructions per kind (compile-time
	// statistics, surfaced for tests and reporting).
	fused map[string]int
}

// Compile lowers every defined function of mod that the backend
// supports. Functions it cannot lower (malformed blocks that only the
// tree-walker's runtime traps can describe) are skipped and fall back
// to tree-walking at call time, so Compile never fails.
func Compile(mod *ir.Module) *Program {
	p := &Program{
		fns:    map[*ir.Func]*fnCode{},
		declIx: map[*ir.Func]int32{},
		fused:  map[string]int{},
	}
	for _, f := range mod.Funcs {
		if f.IsDecl {
			continue
		}
		if code, ok := compileFunc(f, p.fused, p.declIx); ok {
			p.fns[f] = code
		}
	}
	return p
}

// Compiled reports whether f was lowered to bytecode.
func (p *Program) Compiled(f *ir.Func) bool { return p.fns[f] != nil }

// NumCompiled returns the number of lowered functions.
func (p *Program) NumCompiled() int { return len(p.fns) }

// Fused returns the number of fused superinstructions emitted for the
// named pattern: "gep+load", "gep+store", "cmp+br", or "site" for the
// fault-site clusters lowered to vSite.
func (p *Program) Fused(pattern string) int { return p.fused[pattern] }

// Machine executes one Program against one interpreter instance. It
// implements interp.Engine and owns the register-frame recycling pools,
// so a Machine must not be shared between concurrently running
// interpreters — attach one Machine per instance (the Program behind it
// is shared freely).
type Machine struct {
	prog  *Program
	regs  [][]interp.Value
	argvs [][]interp.Value
	arena bitsArena

	// ext caches resolved extern implementations by the program's dense
	// declaration index, valid for one interpreter registration epoch.
	ext      []interp.ExternFn
	extEpoch uint64
}

// externFor returns the cached extern implementation for the dense decl
// index ix, resolving through it on a miss and invalidating the whole
// cache when the interpreter's registration epoch moved. Returns nil
// for unresolvable callees (the caller falls back to it.Call, whose
// trap carries the authoritative diagnostic).
func (m *Machine) externFor(it *interp.Interp, ix int32, f *ir.Func) interp.ExternFn {
	if ep := it.ExternEpoch(); ep != m.extEpoch || m.ext == nil {
		if m.ext == nil {
			m.ext = make([]interp.ExternFn, len(m.prog.declIx))
		} else {
			clear(m.ext)
		}
		m.extEpoch = ep
	}
	if fn := m.ext[ix]; fn != nil {
		return fn
	}
	fn, ok := it.ResolveExtern(f)
	if !ok {
		return nil
	}
	m.ext[ix] = fn
	return fn
}

// arenaChunk is the bump-allocator chunk size in lane words (64 KiB).
const arenaChunk = 8192

// bitsArena bump-allocates lane-word storage for register-resident
// result values. A frame marks the arena on entry and releases to that
// mark on exit: every value the frame produced is dead by then (the
// return value is cloned out first, memory stores copy bytes, and the
// recorder — the only sink that retains values — disables arena mode
// entirely), so the storage is recycled instead of feeding the garbage
// collector one allocation per executed instruction. Within a frame, a
// chunk stays reachable while any register still points into it (see
// vSiteEnd).
type bitsArena struct {
	cur []uint64
	off int
}

// arenaMark is a rewind point: the chunk and offset at frame entry.
type arenaMark struct {
	cur []uint64
	off int
}

func (a *bitsArena) alloc(n int) []uint64 {
	if a.off+n > len(a.cur) {
		sz := arenaChunk
		if n > sz {
			sz = n
		}
		a.cur, a.off = make([]uint64, sz), 0
	}
	s := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

func (a *bitsArena) mark() arenaMark { return arenaMark{a.cur, a.off} }

// release rewinds to mk. A nil mark chunk (the machine's very first
// frame) keeps the current chunk and just resets the offset.
func (a *bitsArena) release(mk arenaMark) {
	if mk.cur != nil {
		a.cur, a.off = mk.cur, mk.off
	} else {
		a.off = 0
	}
}

// NewMachine returns a Machine executing prog.
func NewMachine(prog *Program) *Machine { return &Machine{prog: prog} }

// Attach compiles-and-wires in one step for callers outside the
// campaign layer: it attaches a fresh Machine over prog to it.
func Attach(it *interp.Interp, prog *Program) { it.SetEngine(NewMachine(prog)) }

func (m *Machine) getRegs(n int) []interp.Value {
	if k := len(m.regs); k > 0 {
		buf := m.regs[k-1]
		m.regs[k-1] = nil
		m.regs = m.regs[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]interp.Value, n)
}

func (m *Machine) putRegs(buf []interp.Value) {
	for i := range buf {
		buf[i] = interp.Value{}
	}
	m.regs = append(m.regs, buf[:0])
}

func (m *Machine) getArgs(n int) []interp.Value {
	if k := len(m.argvs); k > 0 {
		buf := m.argvs[k-1]
		m.argvs[k-1] = nil
		m.argvs = m.argvs[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]interp.Value, n)
}

func (m *Machine) putArgs(buf []interp.Value) {
	for i := range buf {
		buf[i] = interp.Value{}
	}
	m.argvs = append(m.argvs, buf[:0])
}
