package core

import (
	"fmt"
	"strings"

	"vulfi/internal/interp"
)

// PlanMode selects what the injection runtime does.
type PlanMode int

const (
	// CountOnly makes the runtime count dynamic fault sites without
	// injecting (the first, golden execution of an experiment).
	CountOnly PlanMode = iota
	// InjectOnce flips a single bit when the TargetDyn-th dynamic fault
	// site executes (the second, faulty execution).
	InjectOnce PlanMode = iota
)

// Plan is the per-execution fault-injection plan: the paper's fault model
// of exactly one bit flip at one dynamic fault site chosen uniformly from
// the N dynamic sites observed in the golden run.
type Plan struct {
	Mode PlanMode
	// TargetDyn is the 1-based dynamic site index to corrupt.
	TargetDyn uint64
	// BitSeed selects the bit position (taken modulo the site's width at
	// injection time, giving a uniform choice over the value's bits).
	BitSeed uint64

	// DynSites counts dynamic fault sites observed so far. Masked-off
	// vector lanes are not counted (§II: the mask decides "whether or not
	// to target a particular vector lane").
	DynSites uint64
	// Visits, when non-nil, receives per-lane-site activation counts:
	// Visits[siteID] is incremented on every live (unmasked) visit of that
	// lane site. Used by atlas profiling runs; nil on the hot experiment
	// path so normal campaigns pay only a nil check.
	Visits []uint64
	// Injected reports whether the flip happened.
	Injected bool
	// Record describes the performed injection.
	Record InjectionRecord
}

// InjectionRecord describes one performed bit flip.
type InjectionRecord struct {
	LaneSiteID int64
	Bit        int
	Width      int
	Before     uint64
	After      uint64
}

// String formats the record.
func (r InjectionRecord) String() string {
	return fmt.Sprintf("site=%d bit=%d/%d %#x->%#x",
		r.LaneSiteID, r.Bit, r.Width, r.Before, r.After)
}

// handle implements the runtime injection API semantics for one call.
func (p *Plan) handle(val interp.Value, active, siteID int64) interp.Value {
	if active == 0 {
		return val // masked-off lane: not a dynamic fault site
	}
	p.DynSites++
	if p.Visits != nil && siteID >= 0 && siteID < int64(len(p.Visits)) {
		p.Visits[siteID]++
	}
	if p.Mode == InjectOnce && !p.Injected && p.DynSites == p.TargetDyn {
		w := val.Ty.ScalarBits()
		bit := int(p.BitSeed % uint64(w))
		// Whole-register ablation passes the full vector through one
		// call; pick the lane from the high seed bits then.
		lane := 0
		if n := len(val.Bits); n > 1 {
			lane = int((p.BitSeed >> 24) % uint64(n))
		}
		out := val.FlipBit(lane, bit)
		p.Injected = true
		p.Record = InjectionRecord{
			LaneSiteID: siteID, Bit: bit, Width: w,
			Before: val.Bits[lane], After: out.Bits[lane],
		}
		return out
	}
	return val
}

// SkipSites implements interp.SitePlan: it counts n live dynamic sites
// in bulk unless one of them is the injection target or Visits keeps
// per-site counts.
func (p *Plan) SkipSites(n uint64) bool {
	if p.Visits != nil {
		return false
	}
	if p.Mode == InjectOnce && !p.Injected &&
		p.TargetDyn > p.DynSites && p.TargetDyn-p.DynSites <= n {
		return false
	}
	p.DynSites += n
	return true
}

// AttachRuntime registers the injectFault* runtime API on an interpreter
// and binds it to plan. The externs read the plan through the
// interpreter's site-plan hook, which survives Reset, so a reused
// instance moves to a fresh plan with it.SetSitePlan alone.
// Re-registering would bump the extern epoch and drop an engine's
// resolved-extern cache on every execution.
func AttachRuntime(it *interp.Interp, plan *Plan) {
	for _, f := range it.Mod.Funcs {
		if f.IsDecl && strings.HasPrefix(f.Nam, "injectFault") {
			it.RegisterExtern(f.Nam, injectFault)
		}
	}
	it.SetSitePlan(plan)
}

// injectFault is the injectFault* runtime API: T injectFault<Ty>(T
// value, i32 active, i32 siteID), handled by the bound plan.
func injectFault(it *interp.Interp, args []interp.Value) (interp.Value, *interp.Trap) {
	active := args[1].Int()
	if active == 0 {
		return args[0], nil // masked-off lane: not a dynamic fault site
	}
	it.CountSiteVisits(1) // live (unmasked) dynamic fault-site visit
	return it.SitePlan().(*Plan).handle(args[0], active, args[2].Int()), nil
}
