// Package vulfi is a Go reproduction of "Towards Resiliency Evaluation
// of Vector Programs" (Sharma, Gopalakrishnan, Krishnamoorthy; DPDNS/IPDPSW
// 2016): VULFI, a vector-oriented LLVM-level fault injector, together with
// every substrate the paper's study needs — an LLVM-like vector IR, an
// architectural interpreter, AVX/SSE ISA models, an ISPC-like SPMD
// compiler (VSPC), compilation-aware error-detector synthesis, the nine
// evaluation benchmarks, and the statistical campaign methodology.
//
// This package is the public facade: it re-exports the types and entry
// points a downstream user needs for the common workflows.
//
// Compile a kernel and study it:
//
//	res, _ := vulfi.CompileSource(src, vulfi.AVX, "demo")
//	sites := vulfi.EnumerateSites(res.Module, nil)
//	inst, _ := vulfi.Instrument(res.Module, sites)
//
// Run a full statistical campaign on a built-in benchmark:
//
//	study, _ := vulfi.NewStudy(
//		vulfi.WithBenchmarkName("Blackscholes"),
//		vulfi.WithISA(vulfi.AVX),
//		vulfi.WithCategory(vulfi.Control),
//		vulfi.WithInputs(8), // pool 8 inputs; golden runs are memoized
//	)
//	result, _ := study.Run(context.Background())
//
// See the examples/ directory for complete programs and DESIGN.md for
// the system inventory and the paper-experiment index.
package vulfi

import (
	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/lang"
	"vulfi/internal/passes"
)

// Compilation.
type (
	// Module is the LLVM-like IR translation unit.
	Module = ir.Module
	// CompileResult is a compiled VSPC module plus its metadata.
	CompileResult = codegen.Result
	// Program is a checked VSPC compilation unit.
	Program = lang.Program
	// ISA describes a target vector instruction set.
	ISA = isa.ISA
)

// Targets.
var (
	// AVX is the 256-bit target (gang of 8 32-bit lanes).
	AVX = isa.AVX
	// SSE is the 128-bit target (gang of 4 32-bit lanes).
	SSE = isa.SSE
)

// CompileSource parses, checks and compiles VSPC source for a target ISA.
func CompileSource(src string, target *ISA, name string) (*CompileResult, error) {
	return codegen.CompileSource(src, target, name)
}

// ParseAndCheck front-ends VSPC source without generating code.
func ParseAndCheck(src string) (*Program, error) { return lang.Compile(src) }

// Fault injection (VULFI proper).
type (
	// Site is one instruction-level fault-injection target.
	Site = core.Site
	// Instrumentation is the lane-site table of an instrumented module.
	Instrumentation = core.Instrumentation
	// Plan is the per-execution single-bit-flip fault plan.
	Plan = core.Plan
	// Category is a fault-site category (pure-data / control / address).
	Category = passes.Category
)

// Fault-site categories (paper §II-C, Figure 2).
const (
	PureData = passes.PureData
	Control  = passes.Control
	Address  = passes.Address
)

// Plan modes.
const (
	CountOnly  = core.CountOnly
	InjectOnce = core.InjectOnce
)

// EnumerateSites builds the instruction-level fault-site list of a
// module (all definitions when funcs is nil).
func EnumerateSites(m *Module, funcs []*ir.Func) []*Site {
	return core.EnumerateSites(m, funcs)
}

// SelectSites filters sites by category.
func SelectSites(sites []*Site, c Category) []*Site {
	return core.SelectSites(sites, c)
}

// Instrument rewrites the module so every lane of every selected site
// flows through the injectFault* runtime API (the Figure 4/5 workflow).
func Instrument(m *Module, sites []*Site) (*Instrumentation, error) {
	return core.Instrument(m, sites)
}

// Execution.
type (
	// Instance is an executable instantiation of a compiled module.
	Instance = exec.Instance
	// Options configure the interpreter (budgets, memory limits).
	Options = interp.Options
	// Value is a runtime value (bit-pattern backed lanes).
	Value = interp.Value
	// Trap is a simulated hardware/OS trap.
	Trap = interp.Trap
)

// NewInstance creates an interpreter for a compiled module with the ISA
// intrinsics bound.
func NewInstance(res *CompileResult, opts Options) (*Instance, error) {
	return exec.NewInstance(res, opts)
}

// Argument constructors for CallExport.
var (
	// I32Arg builds a scalar i32 argument.
	I32Arg = exec.I32Arg
	// F32Arg builds a scalar float argument.
	F32Arg = exec.F32Arg
	// PtrArgF32 builds a float* argument.
	PtrArgF32 = exec.PtrArgF32
	// PtrArgI32 builds an int* argument.
	PtrArgI32 = exec.PtrArgI32
)

// AttachInjection registers the fault-injection runtime bound to plan.
func AttachInjection(x *Instance, plan *Plan) { core.AttachRuntime(x.It, plan) }

// AttachDetectors registers the error-detector runtime API.
func AttachDetectors(x *Instance) { detect.AttachRuntime(x.It) }

// Detector synthesis.
type (
	// ForeachInvariantPass inserts the §III-A foreach-invariant checks.
	ForeachInvariantPass = detect.ForeachInvariantPass
	// UniformBroadcastPass inserts the §III-B lane-equality checks.
	UniformBroadcastPass = detect.UniformBroadcastPass
	// MaskMonotonicityPass inserts the mask-loop monotonicity checks
	// (an extension in the paper's anticipated possibility-space).
	MaskMonotonicityPass = detect.MaskMonotonicityPass
	// PassManager runs module pass pipelines.
	PassManager = passes.Manager
)

// Campaigns.
type (
	// Config describes one study cell (benchmark × ISA × category).
	Config = campaign.Config
	// StudyResult is a statistically qualified study.
	StudyResult = campaign.StudyResult
	// ExperimentResult is one golden/faulty pair outcome.
	ExperimentResult = campaign.ExperimentResult
	// Outcome classifies an experiment (SDC / Benign / Crash).
	Outcome = campaign.Outcome
	// Benchmark is one evaluation workload.
	Benchmark = benchmarks.Benchmark
	// Scale is an input-size regime (test / default / large).
	Scale = benchmarks.Scale
)

// Input-size regimes.
const (
	ScaleTest    = benchmarks.ScaleTest
	ScaleDefault = benchmarks.ScaleDefault
	ScaleLarge   = benchmarks.ScaleLarge
)

// Outcomes.
const (
	Benign = campaign.OutcomeBenign
	SDC    = campaign.OutcomeSDC
	Crash  = campaign.OutcomeCrash
)

// Benchmarks returns the paper's Table I benchmarks.
func Benchmarks() []*Benchmark { return benchmarks.Study() }

// MicroBenchmarks returns the §IV-E micro-benchmarks.
func MicroBenchmarks() []*Benchmark { return benchmarks.Micro() }

// BenchmarkByName returns a benchmark by name, or nil.
func BenchmarkByName(name string) *Benchmark { return benchmarks.ByName(name) }
