package cliutil

import (
	"flag"
	"testing"

	"vulfi/internal/server"
)

// registerVulfi, registerExperiments and registerVspcc mirror the exact
// cliutil calls each binary's main makes (cmd/vulfi, cmd/experiments,
// cmd/vspcc). If a binary adds, renames, or re-defaults a shared knob,
// update the mirror here AND the drift table below — that is the point:
// the table is the contract that shared knobs never diverge.
func registerVulfi(fs *flag.FlagSet) {
	Benchmark(fs, "VectorCopy")
	ISA(fs, "AVX")
	Category(fs)
	Experiments(fs)
	Campaigns(fs)
	Seed(fs, 1)
	Workers(fs)
	Inputs(fs)
	Backend(fs)
	Timeline(fs)
	Shards(fs)
	APIKey(fs)
	Detectors(fs)
	Large(fs)
	TelemetryFlags(fs)
	Version(fs)
}

func registerExperiments(fs *flag.FlagSet) {
	Seed(fs, 20160516)
	Workers(fs)
	Inputs(fs)
	Backend(fs)
	ISA(fs, "")
	Large(fs)
	TelemetryFlags(fs)
	Version(fs)
}

func registerVspcc(fs *flag.FlagSet) {
	Benchmark(fs, "")
	ISA(fs, "AVX")
	Version(fs)
}

// flagInfo captures the drift-relevant identity of a registered flag.
type flagInfo struct {
	usage string
	def   string
}

func flagsOf(reg func(*flag.FlagSet)) map[string]flagInfo {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	reg(fs)
	out := map[string]flagInfo{}
	fs.VisitAll(func(f *flag.Flag) {
		out[f.Name] = flagInfo{usage: f.Usage, def: f.DefValue}
	})
	return out
}

// TestSharedFlagsDoNotDrift: every shared knob is registered under the
// same name with the same usage string by every binary that has it, and
// defaults differ only where the table says a binary deliberately
// diverges (experiments seeds with the paper date; vspcc compiles a
// file argument by default).
func TestSharedFlagsDoNotDrift(t *testing.T) {
	bins := map[string]map[string]flagInfo{
		"vulfi":       flagsOf(registerVulfi),
		"experiments": flagsOf(registerExperiments),
		"vspcc":       flagsOf(registerVspcc),
	}

	shared := []struct {
		name     string
		bins     []string          // binaries that must register it
		defaults map[string]string // per-binary default; others must match vulfi
	}{
		{name: "benchmark", bins: []string{"vulfi", "vspcc"},
			defaults: map[string]string{"vulfi": "VectorCopy", "vspcc": ""}},
		{name: "isa", bins: []string{"vulfi", "experiments", "vspcc"},
			defaults: map[string]string{"vulfi": "AVX", "experiments": "", "vspcc": "AVX"}},
		{name: "category", bins: []string{"vulfi"}},
		{name: "experiments", bins: []string{"vulfi"}},
		{name: "campaigns", bins: []string{"vulfi"}},
		{name: "seed", bins: []string{"vulfi", "experiments"},
			defaults: map[string]string{"vulfi": "1", "experiments": "20160516"}},
		{name: "workers", bins: []string{"vulfi", "experiments"}},
		{name: "inputs", bins: []string{"vulfi", "experiments"}},
		{name: "backend", bins: []string{"vulfi", "experiments"}},
		{name: "timeline", bins: []string{"vulfi"}},
		{name: "shards", bins: []string{"vulfi"}},
		{name: "api-key", bins: []string{"vulfi"}},
		{name: "detectors", bins: []string{"vulfi"}},
		{name: "broadcast-detector", bins: []string{"vulfi"}},
		{name: "large", bins: []string{"vulfi", "experiments"}},
		{name: "progress", bins: []string{"vulfi", "experiments"}},
		{name: "http", bins: []string{"vulfi", "experiments"}},
		{name: "version", bins: []string{"vulfi", "experiments", "vspcc"}},
	}

	// CLI flags that mirror a vulfid spec knob must use the knob's exact
	// JSON name — the same word on the command line and on the wire.
	specKnobs := map[string]bool{}
	for _, f := range server.SpecFields() {
		specKnobs[f] = true
	}
	for _, name := range []string{
		"benchmark", "isa", "category", "experiments", "campaigns",
		"seed", "workers", "inputs", "backend", "detectors", "timeline",
		"shards",
	} {
		if _, ok := bins["vulfi"][name]; !ok {
			t.Errorf("vulfi does not register -%s", name)
		}
		if !specKnobs[name] {
			t.Errorf("-%s has no matching vulfid spec knob %q (SpecFields: %v)",
				name, name, server.SpecFields())
		}
	}

	for _, knob := range shared {
		var refUsage string
		for i, bin := range knob.bins {
			fi, ok := bins[bin][knob.name]
			if !ok {
				t.Errorf("%s does not register -%s", bin, knob.name)
				continue
			}
			if i == 0 {
				refUsage = fi.usage
			} else if fi.usage != refUsage {
				t.Errorf("-%s usage drifts: %s says %q, %s says %q",
					knob.name, knob.bins[0], refUsage, bin, fi.usage)
			}
			if want, pinned := knob.defaults[bin]; pinned && fi.def != want {
				t.Errorf("%s -%s default = %q, want %q", bin, knob.name, fi.def, want)
			}
			if knob.defaults == nil && i > 0 {
				if ref := bins[knob.bins[0]][knob.name]; fi.def != ref.def {
					t.Errorf("-%s default drifts: %s has %q, %s has %q",
						knob.name, knob.bins[0], ref.def, bin, fi.def)
				}
			}
		}
	}
}
