package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"vulfi/internal/campaign"
)

// cellDigest fingerprints a study cell's observable outcome: its static
// and lane site counts and, in index order, every experiment's outcome,
// injection record, dynamic site count, golden dynamic instruction count,
// detection, hang and trap message. Wall times and the build stamp are
// left out, so the tree-walker and the VM must produce the same digest.
func cellDigest(staticSites, laneSites int, results []*campaign.ExperimentResult) (string, error) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(staticSites))
	put(uint64(laneSites))
	for i, r := range results {
		if r == nil {
			return "", fmt.Errorf("experiment %d has no result", i)
		}
		put(uint64(r.Outcome))
		put(uint64(r.Record.LaneSiteID))
		put(uint64(r.Record.Bit))
		put(uint64(r.Record.Width))
		put(r.Record.Before)
		put(r.Record.After)
		put(r.DynSites)
		put(r.GoldenDynInstrs)
		flag(r.Detected)
		flag(r.Hang)
		msg := ""
		if r.Trap != nil {
			msg = r.Trap.Msg
		}
		put(uint64(len(msg)))
		h.Write([]byte(msg))
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// refSeeds is the size of the workloads' input space: round r of a run
// with seed s studies Config.Seed refSeed(refIndex(s, r)), one of refSeeds
// values, so that every cell a run executes has a committed tree-walker
// digest to match. The space is small enough that a run of the quicker
// workloads visits all of it, so their runs differ in seed order and
// noise rather than in which inputs they drew.
const refSeeds = 8

// refIndex maps a run seed and round number onto the reference table.
func refIndex(runSeed int64, round int) int {
	i := (runSeed + int64(round)) % refSeeds
	if i < 0 {
		i += refSeeds
	}
	return int(i)
}

// refSeed is the Config.Seed of reference index i.
func refSeed(i int) int64 { return int64(i) + 1 }

// references maps workload → reference index → cell name → digest.
type references map[string][]map[string]string

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// check compares a digest with the reference; a missing reference is a
// mismatch too, so an out-of-date table fails loudly.
func (r references) check(workload string, idx int, cell, got string) error {
	tab := r[workload]
	if idx >= len(tab) {
		return fmt.Errorf("%s: no reference digests for seed index %d", workload, idx)
	}
	want, ok := tab[idx][cell]
	if !ok {
		return fmt.Errorf("%s: no reference digest for %s at seed %d", workload, cell, refSeed(idx))
	}
	if got != want {
		return fmt.Errorf("%s: %s at seed %d digest %s, tree-walker reference %s",
			workload, cell, refSeed(idx), got, want)
	}
	return nil
}

// regenerate recomputes reference digests with the tree-walking
// interpreter, the semantic oracle, and writes them to path: every
// workload's, or with only set, that workload's merged into the table
// already in path.
func regenerate(path, only string) error {
	refs := references{}
	if only != "" {
		old, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(old, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, w := range workloads() {
		if only != "" && w.name != only {
			continue
		}
		tab := make([]map[string]string, refSeeds)
		for i := range tab {
			tab[i] = map[string]string{}
			for _, c := range w.cells {
				cfg := c.config(refSeed(i))
				cfg.Backend = "tree"
				d, err := runCellDigest(cfg)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", w.name, c.name, refSeed(i), err)
				}
				tab[i][c.name] = d
			}
			fmt.Fprintf(os.Stderr, "regen %s seed %d: %d cells\n", w.name, refSeed(i), len(w.cells))
		}
		refs[w.name] = tab
	}
	out, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
