// Package vm is the compiled execution backend: it lowers verified SSA
// functions to a flat, pre-resolved bytecode form — operand slots and
// branch targets resolved at compile time, phi nodes eliminated into
// parallel moves on edges, and fused superinstructions for the hot
// digram patterns surfaced by the execution profiler (lane address
// computation + load/store, scalar mask test + branch, and a whole
// fault-site instrumentation cluster) — and executes that form as a
// dense dispatch loop over frames whose registers own their storage.
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
// whole cluster, copies its unchanged input into the result and jumps
// past it. Otherwise execution falls through into the cluster's own
// bytecode and every lane calls the runtime, so LaneSiteID attribution,
// dynamic site counting and bit flips stay byte-identical.
//
// Every register owns fixed lane words in its frame: the compiler lays
// out each function's registers with their widths, a call carves the
// frame's value headers and words off two machine-wide stacks that grow
// to the deepest call chain and are reused from then on, and every
// producer writes its result into its destination's own words. No two
// registers share mutable storage — phi moves, the vSite fast path and
// call results copy words — so without a recorder, execution allocates
// nothing per instruction. A recorder retains the values it is handed,
// so with one attached every result is a fresh allocation instead.
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
// implements interp.Engine and owns the register stacks, so a Machine
// must not be shared between concurrently running interpreters — attach
// one Machine per instance (the Program behind it is shared freely).
type Machine struct {
	prog *Program

	// vals and words are the machine-wide register stacks. Each frame
	// carves its value headers and its registers' lane words from the
	// tops (see push); call arguments are carved from vals the same way.
	// Both grow to the deepest call chain and are reused from then on.
	vals     []interp.Value
	words    []uint64
	vsp, wsp int

	// retOwned is set by vCall around a call to a defined function: the
	// callee may then return a value that still lives in its popped
	// frame, because the caller copies it into its destination before
	// anything is pushed again. Any other caller gets a clone.
	retOwned bool

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

// NewMachine returns a Machine executing prog.
func NewMachine(prog *Program) *Machine { return &Machine{prog: prog} }

// Attach compiles-and-wires in one step for callers outside the
// campaign layer: it attaches a fresh Machine over prog to it.
func Attach(it *interp.Interp, prog *Program) { it.SetEngine(NewMachine(prog)) }

// carve takes nv value headers and nw lane words off the stack tops.
// A stack that is too small is replaced by a larger one (at least
// double, so a deepening recursion regrows only logarithmically often);
// frames already running keep the old one through their own slices,
// which stay valid, so nothing is copied.
func (m *Machine) carve(nv, nw int) ([]interp.Value, []uint64) {
	if m.vsp+nv > len(m.vals) {
		m.vals = make([]interp.Value, max(m.vsp+nv, 2*len(m.vals)))
	}
	if m.wsp+nw > len(m.words) {
		m.words = make([]uint64, max(m.wsp+nw, 2*len(m.words)))
	}
	vals := m.vals[m.vsp : m.vsp+nv : m.vsp+nv]
	words := m.words[m.wsp : m.wsp+nw : m.wsp+nw]
	m.vsp += nv
	m.wsp += nw
	return vals, words
}
