package main

import (
	"fmt"
	"math/rand"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/lang"
	"vulfi/internal/passes"
	"vulfi/internal/vm"
)

// layerBuild is a cell built one layer at a time through the same public
// calls campaign.Prepare makes: lang.Compile, codegen.Compile, the §III
// detector passes and core.InstrumentPass under passes.Manager{Verify:
// true}, then vm.Compile. An uninstrumented clone of the codegen output
// is kept as the clean baseline.
type layerBuild struct {
	res, clean    *codegen.Result
	prog, cleanVM *vm.Program
	inst          core.Instrumentation
	codegenInstrs int // IR instructions after codegen
	detectAdded   int // instructions the detector passes inserted
	instrumented  int // IR instructions after instrumentation
	vmCompiled    int // functions lowered to bytecode
	definedFuncs  int
	cleanDefFuncs int
	cleanCompiled int
}

// countInstrs is the number of IR instructions in the module's bodies.
func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		if !f.IsDecl {
			n += len(f.Instrs())
		}
	}
	return n
}

func definedFuncs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		if !f.IsDecl {
			n++
		}
	}
	return n
}

// buildLayers builds cfg's cell layer by layer, one span per layer.
func buildLayers(cfg campaign.Config, t *tracer, parent int) (*layerBuild, error) {
	b := &layerBuild{}
	var prog *lang.Program
	var err error
	t.timed("lang.compile", parent, func() { prog, err = lang.Compile(cfg.Benchmark.Source) })
	if err != nil {
		return nil, fmt.Errorf("lang: %w", err)
	}
	t.timed("codegen.compile", parent, func() { b.res, err = codegen.Compile(prog, cfg.ISA, cfg.Benchmark.Name) })
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	b.codegenInstrs = countInstrs(b.res.Module)
	t.timed("ir.clone", parent, func() {
		clean := *b.res
		clean.Module = ir.CloneModule(b.res.Module)
		b.clean = &clean
	})
	if cfg.Detectors {
		pm := &passes.Manager{Verify: true}
		pm.Add(&detect.ForeachInvariantPass{EveryIteration: cfg.DetectorEveryIteration})
		if cfg.BroadcastDetector {
			pm.Add(&detect.UniformBroadcastPass{})
		}
		if cfg.MaskLoopDetector {
			pm.Add(&detect.MaskMonotonicityPass{})
		}
		t.timed("detect.passes", parent, func() { err = pm.Run(b.res.Module) })
		if err != nil {
			return nil, fmt.Errorf("detect: %w", err)
		}
		b.detectAdded = countInstrs(b.res.Module) - b.codegenInstrs
	}
	pm := &passes.Manager{Verify: true}
	pm.Add(&core.InstrumentPass{Category: cfg.Category, Out: &b.inst,
		WholeRegister: cfg.WholeRegisterSites, MaskOblivious: cfg.MaskOblivious})
	t.timed("core.instrument", parent, func() { err = pm.Run(b.res.Module) })
	if err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}
	b.instrumented = countInstrs(b.res.Module)
	t.timed("vm.compile", parent, func() { b.prog = vm.Compile(b.res.Module) })
	b.vmCompiled, b.definedFuncs = b.prog.NumCompiled(), definedFuncs(b.res.Module)
	t.timed("vm.compile.clean", parent, func() { b.cleanVM = vm.Compile(b.clean.Module) })
	return b, nil
}

// probeRun is one clean and one instrumented CountOnly execution of a
// cell's first experiment input.
type probeRun struct {
	firstInstance       time.Duration
	setups              []time.Duration
	cleanRun, goldenRun time.Duration
	cleanDyn, goldenDyn uint64
	goldenSites         uint64
}

// probe times the execution layers on a built cell: exec.NewInstance plus
// the vm, injection-runtime and detector-runtime attachments a fresh
// campaign instance gets, Benchmark.Setup on its own, and
// Instance.CallExport on the clean and the instrumented module.
func (b *layerBuild) probe(cfg campaign.Config, t *tracer, parent int) (*probeRun, error) {
	pr := &probeRun{}
	plan := &core.Plan{Mode: core.CountOnly}
	var x *exec.Instance
	var err error
	t.timed("exec.first_instance", parent, func() {
		if x, err = exec.NewInstance(b.res, interp.Options{}); err != nil {
			return
		}
		vm.Attach(x.It, b.prog)
		core.AttachRuntime(x.It, plan)
		detect.AttachRuntime(x.It)
	})
	if err != nil {
		return nil, err
	}
	var xc *exec.Instance
	t.timed("exec.clean_instance", parent, func() {
		if xc, err = exec.NewInstance(b.clean, interp.Options{}); err == nil {
			vm.Attach(xc.It, b.cleanVM)
		}
	})
	if err != nil {
		return nil, err
	}
	seed := cfg.InputSeed(0)
	run := func(inst *exec.Instance, name string) (time.Duration, error) {
		var spec *benchmarks.RunSpec
		var serr error
		rng := rand.New(rand.NewSource(seed))
		pr.setups = append(pr.setups, t.timed("benchmarks.setup", parent, func() {
			spec, serr = cfg.Benchmark.Setup(inst, rng, cfg.Scale)
		}))
		if serr != nil {
			return 0, serr
		}
		var tr *interp.Trap
		d := t.timed(name, parent, func() { _, tr = inst.CallExport(cfg.Benchmark.Entry, spec.Args...) })
		if tr != nil {
			return 0, fmt.Errorf("%s trapped: %v", name, tr)
		}
		return d, nil
	}
	if pr.cleanRun, err = run(xc, "exec.clean_run"); err != nil {
		return nil, err
	}
	if pr.goldenRun, err = run(x, "exec.golden_run"); err != nil {
		return nil, err
	}
	pr.cleanDyn, pr.goldenDyn = xc.It.DynInstrs, x.It.DynInstrs
	return pr, nil
}
