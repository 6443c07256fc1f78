// Package cliutil registers the canonical command-line flags shared by
// the vulfi binaries (vulfi, vulfid, experiments, vspcc), so every tool
// spells each knob the same way — -benchmark, -isa, -category, -seed,
// -inputs, ... — with one usage string per knob. Per-binary defaults
// stay with the caller (experiments seeds with the paper date, vspcc
// has no default benchmark), but a flag's name and meaning never drift
// between tools.
package cliutil

import (
	"flag"
	"fmt"
	"io"

	"vulfi/internal/buildinfo"
	"vulfi/internal/telemetry"
)

// Version registers the canonical -version flag; pair it with
// PrintVersion right after flag parsing.
func Version(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print build provenance (version, toolchain, commit) and exit")
}

// PrintVersion writes the tool's one-line build stamp — module version,
// Go toolchain, and the VCS revision with a dirty bit when the binary
// was built inside a checkout.
func PrintVersion(w io.Writer, tool string) {
	fmt.Fprintf(w, "%s: %s\n", tool, buildinfo.String())
}

// Benchmark registers the canonical -benchmark flag.
func Benchmark(fs *flag.FlagSet, def string) *string {
	return fs.String("benchmark", def, "built-in benchmark name (see 'vulfi -list')")
}

// ISA registers the canonical -isa flag. Binaries that accept "all
// ISAs" pass an empty default.
func ISA(fs *flag.FlagSet, def string) *string {
	return fs.String("isa", def, "target ISA: AVX or SSE")
}

// Category registers the canonical -category flag.
func Category(fs *flag.FlagSet) *string {
	return fs.String("category", "pure-data", "fault-site category: pure-data, control, address")
}

// Experiments registers the canonical -experiments flag (paper: 100
// per campaign).
func Experiments(fs *flag.FlagSet) *int {
	return fs.Int("experiments", 100, "experiments per campaign")
}

// Campaigns registers the canonical -campaigns flag (paper: 20).
func Campaigns(fs *flag.FlagSet) *int {
	return fs.Int("campaigns", 20, "number of campaigns")
}

// Seed registers the canonical -seed flag.
func Seed(fs *flag.FlagSet, def int64) *int64 {
	return fs.Int64("seed", def, "study seed (the whole schedule is deterministic under it)")
}

// Workers registers the canonical -workers flag.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "experiment parallelism (0 = NumCPU)")
}

// Inputs registers the canonical -inputs flag: the input-pool size K
// that enables golden-run memoization.
func Inputs(fs *flag.FlagSet) *int {
	return fs.Int("inputs", 0, "input-pool size K: experiment i draws input i mod K and golden runs are memoized (0 = fresh input per experiment, 1 = paper-faithful fixed input)")
}

// Backend registers the canonical -backend flag selecting the
// execution backend.
func Backend(fs *flag.FlagSet) *string {
	return fs.String("backend", "", "execution backend: tree (reference interpreter) or vm (compiled bytecode; same results, faster)")
}

// Timeline registers the canonical -timeline flag. The flag name is
// deliberately the same word as the vulfid spec knob ("timeline") so
// the CLI and the wire API never spell the feature differently; the
// drift test pins both.
func Timeline(fs *flag.FlagSet) *string {
	return fs.String("timeline", "", "trace the study's span timeline: write Chrome trace-event JSON to FILE (load in Perfetto) and the raw spans to FILE.jsonl; with -remote the client's root span parents the daemon's spans in one merged trace")
}

// Shards registers the canonical -shards flag. Like -timeline, the
// flag name matches the vulfid spec knob ("shards") exactly, pinned by
// the drift test.
func Shards(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "split the study into about N shards across a coordinator's worker fleet (requires -remote to a vulfid started with -coordinator)")
}

// APIKey registers the canonical -api-key flag for clients of an
// authenticated vulfid.
func APIKey(fs *flag.FlagSet) *string {
	return fs.String("api-key", "", "API key presented to the remote vulfid (required when the daemon runs with -api-key)")
}

// MutuallyExclusive renders the canonical error for two flags that
// cannot be combined; hint explains why or what to do instead.
func MutuallyExclusive(a, b, hint string) error {
	return fmt.Errorf("-%s cannot be combined with -%s (%s)", a, b, hint)
}

// Requires renders the canonical error for a flag that only works in
// combination with another.
func Requires(name, needs, hint string) error {
	return fmt.Errorf("-%s requires -%s (%s)", name, needs, hint)
}

// Detectors registers the canonical detector pair: -detectors and
// -broadcast-detector.
func Detectors(fs *flag.FlagSet) (detectors, broadcast *bool) {
	detectors = fs.Bool("detectors", false, "insert the foreach-invariant detectors")
	broadcast = fs.Bool("broadcast-detector", false, "also insert the uniform-broadcast checker")
	return detectors, broadcast
}

// Large registers the canonical -large flag.
func Large(fs *flag.FlagSet) *bool {
	return fs.Bool("large", false, "use large inputs")
}

// Telemetry is the shared observability flag group — -progress and
// -http — registered identically by every campaign binary.
type Telemetry struct {
	Progress *bool
	HTTP     *string
}

// TelemetryFlags registers the canonical telemetry flag group.
func TelemetryFlags(fs *flag.FlagSet) *Telemetry {
	return &Telemetry{
		Progress: fs.Bool("progress", false, "render live progress on stderr"),
		HTTP:     fs.String("http", "", "serve /metrics, /debug/vars and pprof on this address (e.g. :6060)"),
	}
}

// Start starts the -http telemetry server when one was asked for.
func (t *Telemetry) Start(stderr io.Writer) error {
	if *t.HTTP == "" {
		return nil
	}
	_, url, err := telemetry.Serve(*t.HTTP, telemetry.Default())
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "telemetry on %s/metrics (also /debug/vars, /debug/pprof)\n", url)
	return nil
}
