package main

import (
	"sort"
	"time"
)

// The benchmark runs on a small share of a shared machine whose speed
// moves under it. On a 2-vCPU KVM guest (Xeon, Sapphire Rapids) every
// workload's throughput, and the single-threaded campaign.Prepare of the
// same cells, ran up to twice as fast or slow for minutes at a time, as
// the machine's other load came and went; a spell outlasts a run, so no
// statistic over a run's own rounds removes it. So every time the JSON
// result carries is scaled to a reference host speed: before each round
// the benchmark times hostProbe, a fixed computation that shares no code
// with the program, and divides the round's times by the probe's
// slowdown against probeRef. In ten runs of each workload on that guest,
// while the slowdown moved between 1.1 and 1.9, this cut the spread of
// exp_per_s (quartile distance over median) from 0.14-0.32 to 0.05-0.11.
// A program change cannot move the probe, so scaled figures of two
// commits compare as raw ones would on a steady host.

// probeRef is about hostProbe's median time on that guest; any constant
// gives comparable runs, this one keeps scaled times near raw ones there.
const probeRef = 6 * time.Millisecond

const (
	probeKeys = 20000 // tree nodes per probe
	probeReps = 7     // probes per round; the median is kept
)

type probeNode struct {
	key         uint64
	left, right *probeNode
	vals        []uint64
}

var probeSink uint64

// hostProbe inserts pseudo-random keys into an unbalanced binary tree of
// heap nodes and sums it: small allocations, pointer chasing and the
// collector, as in the program's compile and execute paths.
func hostProbe() time.Duration {
	start := time.Now()
	var root *probeNode
	x := uint64(88172645463325252)
	for i := 0; i < probeKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p := &root
		for *p != nil {
			if x < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &probeNode{key: x, vals: []uint64{x, x >> 8, x >> 16, x >> 24}}
	}
	stack := []*probeNode{root}
	var sum uint64
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil {
			continue
		}
		sum += n.vals[len(n.vals)-1]
		stack = append(stack, n.left, n.right)
	}
	probeSink += sum
	return time.Since(start)
}

// hostSlowdown is the host's current slowdown against the reference: the
// median of probeReps probes over probeRef.
func hostSlowdown() float64 {
	ds := make([]float64, probeReps)
	for i := range ds {
		ds[i] = float64(hostProbe())
	}
	sort.Float64s(ds)
	return ds[probeReps/2] / float64(probeRef)
}

// scaled divides each time by the round's host slowdown.
func scaled(xs []float64, slow float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / slow
	}
	return out
}
