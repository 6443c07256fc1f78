package campaign

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"vulfi/internal/obs"
	"vulfi/internal/telemetry"
)

// workerCtx carries one study worker's observability identity through
// an experiment: its span lane (nil when Cfg.Timeline is off), its
// heartbeat pulse (nil when Cfg.Heartbeat is unset) and the index of
// the experiment currently executing. One workerCtx belongs to exactly
// one worker goroutine, so none of its fields need synchronization.
type workerCtx struct {
	worker int
	index  int
	lane   *obs.Lane
	beat   func(uint64)
}

// tracing reports whether this worker records spans. Safe on nil.
func (wc *workerCtx) tracing() bool { return wc != nil && wc.lane != nil }

// phase feeds one campaign phase, timed once by its caller, to every
// sink that is on: the cell histogram h, the profile's phase table and
// the worker's span lane, so all three carry the same duration. A nil h
// marks a span-only phase: cache-fill runs inside golden and is counted
// there. An empty parent places the span under the study root. attrs,
// when non-nil, builds the span's attributes and runs only when the span
// is recorded. Safe on nil.
func (wc *workerCtx) phase(p *Prepared, h *telemetry.Histogram, name string, n int64, parent string, start time.Time, d time.Duration, attrs func() map[string]string) {
	if h != nil {
		h.Observe(d)
		if p.prof != nil {
			p.prof.Phase(name, d)
		}
	}
	if !wc.tracing() {
		return
	}
	if parent == "" {
		parent = p.obs.Root()
	}
	var a map[string]string
	if attrs != nil {
		a = attrs()
	}
	wc.lane.Record(name, p.spanID(name, n), parent, start, d, a)
}

// expSpan records the enclosing experiment span once the experiment
// has fully finished. Every attribute derives from the deterministic
// schedule (index, seed) or the deterministic result (outcome, site),
// never from timing or scheduling, so the canonical span tree is
// identical across runs and worker counts.
func (wc *workerCtx) expSpan(p *Prepared, id string, seed int64, start time.Time, r *ExperimentResult) {
	if !wc.tracing() {
		return
	}
	attrs := map[string]string{
		"index":    strconv.Itoa(wc.index),
		"seed":     strconv.FormatInt(seed, 10),
		"outcome":  r.Outcome.String(),
		"detected": strconv.FormatBool(r.Detected),
		"input":    r.InputLabel,
	}
	if r.DynSites > 0 {
		attrs["site"] = r.Record.String()
	}
	wc.lane.Record("experiment", id, p.obs.Root(), start, r.Wall, attrs)
}

// workerCtx builds worker w's observability context (nil when neither
// spans nor heartbeats are wanted — the common case costs nothing).
func (p *Prepared) workerCtx(w int) *workerCtx {
	var wc *workerCtx
	if p.obs != nil && w < p.obs.NumLanes() {
		wc = &workerCtx{worker: w, lane: p.obs.Lane(w)}
	}
	if hb := p.Cfg.Heartbeat; hb != nil {
		if wc == nil {
			wc = &workerCtx{worker: w}
		}
		wc.beat = func(uint64) { hb(w) }
	}
	return wc
}

// spanID derives a deterministic span ID within the study's trace.
func (p *Prepared) spanID(name string, n int64) string {
	return obs.DeriveSpanID(p.obs.TraceID(), name, n)
}

// traceIdentity resolves the study's trace identity: adopted from
// Config.TraceParent when set (a remote study joins the submitting
// client's trace), derived deterministically from the study key
// otherwise.
func (c Config) traceIdentity() (traceID, parent string) {
	if c.TraceParent != "" {
		if tid, sid, err := obs.ParseTraceparent(c.TraceParent); err == nil {
			return tid, sid
		}
		// Malformed traceparents are rejected by Config.Validate before
		// any collector exists; falling through derives a local trace.
	}
	return obs.DeriveTraceID(fmt.Sprintf("%s seed=%d", c.String(), c.Seed)), ""
}

// newTimelineCollector builds the study's span collector: one lane per
// worker (the same worker count RunStudy will use) plus the control
// lane, all anchored to the prepare epoch so the compile span sits at
// offset zero.
func newTimelineCollector(cfg Config, epoch time.Time) *obs.Collector {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tid, parent := cfg.traceIdentity()
	root := obs.DeriveSpanID(tid, studyRootName(cfg), cfg.Seed)
	return obs.NewCollector(tid, root, parent, workers, epoch)
}

// studyRootName names the study's root span: "study" for a whole
// study, "study[lo,hi)" for a shard. Shards of one study share the
// coordinator's trace ID (via traceparent) and the study seed; the
// range keeps their root span IDs distinct — and their rendered names
// tell shards apart in a fleet-merged trace.
func studyRootName(cfg Config) string {
	if cfg.ShardEnd > 0 {
		return fmt.Sprintf("study[%d,%d)", cfg.ShardStart, cfg.ShardEnd)
	}
	return "study"
}

// studyAttrs are the root span's attributes. Deliberately excludes the
// worker count (so canonical trees compare across parallelism) and any
// timing.
func studyAttrs(cfg Config, total int) map[string]string {
	backend := cfg.Backend
	if backend == "" {
		backend = "tree"
	}
	return map[string]string{
		"benchmark":   cfg.Benchmark.Name,
		"isa":         cfg.ISA.Name,
		"category":    cfg.Category.String(),
		"backend":     backend,
		"seed":        strconv.FormatInt(cfg.Seed, 10),
		"experiments": strconv.Itoa(total),
	}
}
