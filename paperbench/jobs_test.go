package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestJobRoundMatchesReference runs one vulfid-jobs round: both the
// single-node and the 2-shard job must match the tree-walker digest, the
// fleet view must account for every sharded experiment, the traced round
// must read the shard timings, and the drained fleet must leave no
// journals behind.
func TestJobRoundMatchesReference(t *testing.T) {
	w, err := workloadByName("vulfid-jobs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	jr := jobsRound(dir, w, refs, 2, &tracer{})
	if jr.fleetErr != nil {
		t.Fatal(jr.fleetErr)
	}
	if len(jr.jobs) != 2 || !jr.jobs[1].sharded {
		t.Fatalf("round ran %d jobs", len(jr.jobs))
	}
	for _, j := range jr.jobs {
		if j.err != nil {
			t.Fatalf("sharded=%v: %v", j.sharded, j.err)
		}
		if j.exps != 2000 || len(j.expWalls) != 2000 || j.latency <= 0 {
			t.Errorf("sharded=%v: %d experiments, %d walls, latency %v", j.sharded, j.exps, len(j.expWalls), j.latency)
		}
	}
	if len(jr.timings) != 1 || jr.timings[0].skew < 1 || jr.timings[0].dispatch < 0 || jr.timings[0].tail < 0 {
		t.Errorf("shard timings %+v", jr.timings)
	}
	if jr.setup <= 0 || jr.twin <= 0 || jr.layers == nil {
		t.Errorf("traced round missing setup %v, twin %v or layers", jr.setup, jr.twin)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("journal directory left behind: %v", err)
	}
}

// TestFleetCheckCountsHarvest checks the accounting check itself: it
// passes only when the fleet harvested exactly the sharded experiments
// submitted.
func TestFleetCheckCountsHarvest(t *testing.T) {
	w, err := workloadByName("vulfid-jobs")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(filepath.Join(t.TempDir(), "fleet"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if j := f.runJob(w, refs, 3, 2, nil, 0); j.err != nil {
		t.Fatal(j.err)
	}
	ctx := context.Background()
	if err := f.fleetCheck(ctx, 2000); err != nil {
		t.Error(err)
	}
	if err := f.fleetCheck(ctx, 4000); err == nil {
		t.Error("fleet check accepted a harvest total that does not match")
	}
}
