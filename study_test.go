package vulfi

import (
	"context"
	"testing"

	"vulfi/internal/campaign"
)

// TestNewStudyMatchesClassicAPI: a study built from functional options
// must run the exact same schedule as campaign.RunStudy on the
// equivalent Config struct.
func TestNewStudyMatchesClassicAPI(t *testing.T) {
	study, err := NewStudy(
		WithBenchmarkName("VectorCopy"),
		WithISA(AVX),
		WithCategory(PureData),
		WithScale(ScaleTest),
		WithExperiments(10),
		WithCampaigns(2),
		WithSeed(7),
		WithInputs(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := study.Config()
	want, err := campaign.RunStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gt, wt := got.Totals, want.Totals
	gt.WallTotal, gt.WallMin, gt.WallMax = 0, 0, 0
	wt.WallTotal, wt.WallMin, wt.WallMax = 0, 0, 0
	if gt != wt {
		t.Fatalf("options API diverged from classic API:\noptions: %+v\nclassic: %+v", gt, wt)
	}
}

// TestNewStudyValidation: option and validation failures surface at
// construction, before any compilation.
func TestNewStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []StudyOption
	}{
		{"unknown benchmark", []StudyOption{WithBenchmarkName("NoSuchKernel"), WithISA(AVX)}},
		{"nil benchmark", []StudyOption{WithBenchmark(nil), WithISA(AVX)}},
		{"nil isa", []StudyOption{WithBenchmarkName("VectorCopy"), WithISA(nil)}},
		{"unknown isa", []StudyOption{WithBenchmarkName("VectorCopy"), WithISAName("MMX")}},
		{"missing isa", []StudyOption{WithBenchmarkName("VectorCopy")}},
		{"negative inputs", []StudyOption{
			WithBenchmarkName("VectorCopy"), WithISA(AVX), WithInputs(-1)}},
		{"negative experiments", []StudyOption{
			WithBenchmarkName("VectorCopy"), WithISA(AVX), WithExperiments(-3)}},
	}
	for _, tc := range cases {
		if _, err := NewStudy(tc.opts...); err == nil {
			t.Errorf("%s: NewStudy accepted the configuration", tc.name)
		}
	}
}

// TestNewStudyDefaults: zero counts normalize to the paper's 100×20 at
// construction, and the escape hatch reaches raw Config fields.
func TestNewStudyDefaults(t *testing.T) {
	var sawHook bool
	study, err := NewStudy(
		WithBenchmarkName("VectorCopy"),
		WithISAName("SSE"),
		WithConfig(func(c *Config) { sawHook = true }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !sawHook {
		t.Fatal("WithConfig hook did not run")
	}
	cfg := study.Config()
	if cfg.Experiments != 100 || cfg.Campaigns != 20 {
		t.Fatalf("defaults = %d×%d, want 100×20", cfg.Experiments, cfg.Campaigns)
	}
	if cfg.ISA != SSE {
		t.Fatalf("ISA = %v, want SSE", cfg.ISA)
	}
}
