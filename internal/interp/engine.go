package interp

import "vulfi/internal/ir"

// Engine is an alternate execution backend for function bodies. An
// attached engine is offered every call to a defined (non-declaration)
// function after the interpreter has performed the shared call protocol
// — extern dispatch, depth accounting, argument-count checking — and
// may execute the body against the interpreter's own observable state
// (DynInstrs/DynVector, memory, output, detections, recorder, profiler,
// metrics, site plan). Returning ok == false declines the function and
// the interpreter tree-walks it instead, so an engine may compile only
// the subset of functions it supports.
//
// The contract is strict equivalence: an engine must reproduce the
// tree-walker's observable behavior exactly — identical DynInstrs
// accounting (including phis and terminators), identical budget-check
// schedule, identical trap kinds/messages/provenance, and identical
// Recorder/Profiler event streams. The differential tests in
// internal/vm and internal/campaign pin this contract.
//
// Like registered externs and attached metrics, the engine survives
// Reset: campaign instance pools reset-and-reuse interpreters without
// re-attaching their backend.
type Engine interface {
	CallCompiled(it *Interp, f *ir.Func, args []Value) (Value, *Trap, bool)
}

// SetEngine attaches (or, with nil, detaches) an execution engine.
func (it *Interp) SetEngine(e Engine) { it.engine = e }

// Engine returns the attached execution engine, or nil.
func (it *Interp) Engine() Engine { return it.engine }

// FusedProfiler is optionally implemented by profilers that can account
// a fused superinstruction group in one call: one timestamp for the
// whole group instead of one per constituent, with counts and pair
// digrams identical to sequential Account calls. Backends that execute
// fused superinstructions use it so wall-time attribution stays fair
// (the group's execution time is split across its constituents) while
// profile totals still structurally equal DynInstrs.
type FusedProfiler interface {
	Profiler
	AccountFused(ins []*ir.Instr)
}

// SitePlan is the fault-injection plan behind the injectFault* runtime
// API, as engines see it. The core package's Plan implements it; interp
// cannot import core, so the runtime binds the plan through this hook.
//
// SkipSites lets an engine retire n live lane visits of one site
// cluster in bulk, without calling the runtime. It advances the
// dynamic-site count and reports true only when the n visits need
// nothing else: none is the injection target and no per-site
// statistics are kept. On false it changes nothing, and the engine must
// make the n visits through the runtime one call at a time.
type SitePlan interface {
	SkipSites(n uint64) bool
}

// SetSitePlan binds (or, with nil, unbinds) the fault-injection plan.
// Binding a plan asserts that the module's injectFault* externs are its
// runtime, so an engine may retire whole site clusters through
// SkipSites without calling them. The binding survives Reset, like the
// externs that read it: a pooled instance is rebound per execution
// without re-registering its externs.
func (it *Interp) SetSitePlan(p SitePlan) { it.sites = p }

// SitePlan returns the bound fault-injection plan, or nil.
func (it *Interp) SitePlan() SitePlan { return it.sites }

// The methods below export exactly the hooks an Engine needs to
// replicate the tree-walker's observable contract without duplicating
// its semantics: budget checks, trap provenance, the hook sinks and the
// scalar/vector operation kernels. Engines must use these rather than
// re-implement them, so the two backends cannot drift.

// CheckBudget reports a TrapBudget when the executed-instruction count
// has exceeded the configured budget, with the tree-walker's exact
// message. Engines call it on the same schedule as the interpreter:
// after every phi block, and after accounting a non-phi instruction
// whenever DynInstrs is a multiple of 1024.
func (it *Interp) CheckBudget() *Trap { return it.checkBudget() }

// LocateTrap stamps tr with the provenance of in (innermost frame
// wins), exactly as the tree-walker does before unwinding a trap.
func (it *Interp) LocateTrap(tr *Trap, in *ir.Instr) *Trap { return it.locate(tr, in) }

// Recorder returns the attached execution recorder, or nil.
func (it *Interp) Recorder() Recorder { return it.rec }

// Profiler returns the attached execution profiler, or nil.
func (it *Interp) Profiler() Profiler { return it.prof }

// ResolveExtern resolves a declaration to the implementation Call would
// dispatch to (registered extern, then generic intrinsic). Engines that
// cache the result must key the cache on ExternEpoch.
func (it *Interp) ResolveExtern(f *ir.Func) (ExternFn, bool) { return it.resolveExtern(f) }

// ExternEpoch returns a counter bumped by every RegisterExtern, so a
// resolved-extern cache can detect re-registration and invalidate.
func (it *Interp) ExternEpoch() uint64 { return it.externEpoch }

// Exported operation kernels. They share their lane loops with the
// tree-walker's own implementations (execInstr dispatches to the
// allocating forms), so a backend that routes its arithmetic through
// them shares bit-exact semantics by construction. Each computes into a
// caller-provided result value whose Bits already hold one word per
// lane. Every lane is written on the success path, so the storage may
// be reused (e.g. a register's own words in a compiled frame) without
// stale data leaking between instructions.

// IntBinInto applies an integer binary opcode lane-wise into out.
func IntBinInto(out Value, op ir.Op, a, b Value) *Trap { return intBinInto(out, op, a, b) }

// FloatBinInto applies a float binary opcode lane-wise into out.
func FloatBinInto(out Value, op ir.Op, a, b Value) { floatBinInto(out, op, a, b) }

// CompareInto applies an icmp/fcmp predicate lane-wise into out (i1 lanes).
func CompareInto(out Value, op ir.Op, pred ir.Pred, a, b Value) { compareInto(out, op, pred, a, b) }

// SelectInto applies select into out.
func SelectInto(out Value, c, t, f Value) { selectInto(out, c, t, f) }

// CastInto applies a cast opcode into out, producing type to.
func CastInto(out Value, op ir.Op, v Value, to *ir.Type) { castInto(out, op, v, to) }
