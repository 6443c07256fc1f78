// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -table1            # Table I
//	experiments -fig10             # Figure 10 instruction mix
//	experiments -fig11             # Figure 11 outcome rates
//	experiments -fig12             # Figure 12 detector study
//	experiments -ablations         # DESIGN.md ablations
//	experiments -all               # everything
//	experiments -all -full         # paper-scale counts (108,000 experiments)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/cliutil"
	"vulfi/internal/isa"
	"vulfi/internal/report"
	"vulfi/internal/server"
	"vulfi/internal/telemetry"
)

func main() {
	fs := flag.CommandLine
	var (
		table1    = flag.Bool("table1", false, "regenerate Table I")
		fig10     = flag.Bool("fig10", false, "regenerate Figure 10")
		fig11     = flag.Bool("fig11", false, "regenerate Figure 11")
		fig12     = flag.Bool("fig12", false, "regenerate Figure 12")
		ablations = flag.Bool("ablations", false, "run the design ablations")
		ext       = flag.Bool("extensions", false, "run the beyond-the-paper studies")
		all       = flag.Bool("all", false, "regenerate everything")
		full      = flag.Bool("full", false, "paper-scale experiment counts")
		benchList = flag.String("benchmarks", "", "comma-separated benchmark filter")

		seed    = cliutil.Seed(fs, 20160516)
		workers = cliutil.Workers(fs)
		inputs  = cliutil.Inputs(fs)
		backend = cliutil.Backend(fs)
		isaName = cliutil.ISA(fs, "") // empty = both targets
		large   = cliutil.Large(fs)
		tel     = cliutil.TelemetryFlags(fs)
		version = cliutil.Version(fs)
	)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "experiments")
		return
	}

	opts := report.Defaults()
	if *full {
		opts = report.Full()
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Inputs = *inputs
	be, err := server.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Backend = be
	if *large {
		opts.Scale = benchmarks.ScaleLarge
	}
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}
	if *isaName != "" {
		a := isa.ByName(strings.ToUpper(*isaName))
		if a == nil {
			fmt.Fprintf(os.Stderr, "unknown ISA %q\n", *isaName)
			os.Exit(2)
		}
		opts.ISAs = []*isa.ISA{a}
	}
	if *tel.Progress {
		opts.Progress = os.Stderr
	}
	if err := tel.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if !(*table1 || *fig10 || *fig11 || *fig12 || *ablations || *ext || *all) {
		flag.Usage()
		os.Exit(2)
	}

	type section struct {
		on  bool
		fn  func() error
		tag string
	}
	sections := []section{
		{*all || *table1, func() error { return report.Table1(os.Stdout, opts) }, "table1"},
		{*all || *fig10, func() error { return report.Fig10(os.Stdout, opts) }, "fig10"},
		{*all || *fig11, func() error { return report.Fig11(os.Stdout, opts) }, "fig11"},
		{*all || *fig12, func() error { return report.Fig12(os.Stdout, opts) }, "fig12"},
		{*all || *ablations, func() error { return report.Ablations(os.Stdout, opts) }, "ablations"},
		{*all || *ext, func() error { return report.Extension(os.Stdout, opts) }, "extensions"},
	}
	expCounter := telemetry.Default().Counter("campaign.experiments")
	for _, s := range sections {
		if !s.on {
			continue
		}
		start, before := time.Now(), expCounter.Value()
		if err := s.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.tag, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if ran := expCounter.Value() - before; ran > 0 {
			fmt.Printf("\n[%s done in %v — %d experiments, %.1f exp/s]\n\n",
				s.tag, elapsed.Round(time.Millisecond), ran,
				float64(ran)/elapsed.Seconds())
		} else {
			fmt.Printf("\n[%s done in %v]\n\n", s.tag, elapsed.Round(time.Millisecond))
		}
	}
}
