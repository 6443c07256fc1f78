package interp

import "vulfi/internal/telemetry"

// Metrics exports interpreter execution counters into a telemetry
// registry. All fields are optional (nil fields are skipped). Attach
// with SetMetrics; when no Metrics is attached the execution hot path
// pays only a nil pointer test, and even when attached the dynamic
// counts are batched — flushed once per top-level call rather than per
// instruction — so the per-instruction loop is unchanged.
//
// One Metrics value may be shared by many interpreter instances (the
// counters are atomic); per-instance flush bookkeeping lives on the
// Interp.
type Metrics struct {
	// Instrs receives the dynamic instruction count; VectorInstrs the
	// vector subset.
	Instrs       *telemetry.Counter
	VectorInstrs *telemetry.Counter
	// SiteVisits counts live dynamic fault-site visits (the injection
	// runtime reports every unmasked lane visit to CountSiteVisits).
	// Like the dynamic counts it is batched: published on flush, not per
	// visit.
	SiteVisits *telemetry.Counter
	// Traps counts top-level executions that ended in a trap.
	Traps *telemetry.Counter
}

// NewMetrics builds the interpreter's standard counter set on a
// registry.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Instrs:       r.Counter("interp.instrs"),
		VectorInstrs: r.Counter("interp.vector_instrs"),
		SiteVisits:   r.Counter("interp.site_visits"),
		Traps:        r.Counter("interp.traps"),
	}
}

// SetMetrics attaches (or, with nil, detaches) telemetry counters.
func (it *Interp) SetMetrics(m *Metrics) { it.metrics = m }

// CountSiteVisits records n live dynamic fault-site visits: one per
// unmasked lane call of the injection runtime, or a whole cluster's
// live lanes when an engine retires it in bulk. The count is batched
// locally and published to the attached counter on flush, so the
// per-site cost is one non-atomic add.
func (it *Interp) CountSiteVisits(n uint64) { it.siteVisits += n }

// FlushMetrics publishes the not-yet-reported portion of the dynamic
// instruction counters. Called automatically when a top-level Call
// returns; exposed for callers that read counters mid-execution.
func (it *Interp) FlushMetrics() {
	m := it.metrics
	if m == nil {
		return
	}
	if m.Instrs != nil && it.DynInstrs > it.flushedInstrs {
		m.Instrs.Add(it.DynInstrs - it.flushedInstrs)
	}
	if m.VectorInstrs != nil && it.DynVector > it.flushedVector {
		m.VectorInstrs.Add(it.DynVector - it.flushedVector)
	}
	if m.SiteVisits != nil && it.siteVisits > it.flushedVisits {
		m.SiteVisits.Add(it.siteVisits - it.flushedVisits)
	}
	it.flushedInstrs, it.flushedVector = it.DynInstrs, it.DynVector
	it.flushedVisits = it.siteVisits
}
