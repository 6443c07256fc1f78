package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vulfi/internal/campaign"
	"vulfi/internal/obs"
	"vulfi/internal/profile"
)

// The journal is the daemon's crash-safety mechanism: one append-only
// JSONL file per job under the journal directory, named <id>.jsonl.
// Five record kinds appear in order:
//
//	{"t":"submit","id":...,"spec":{...}}        exactly once, first line
//	{"t":"exp","i":N,"seed":S,"r":{...}}        one per completed experiment
//	{"t":"harvest","worker":...,"n":N,"ns":E}   coordinator only: one per
//	                                            harvest poll that pulled
//	                                            new triples (and per fleet
//	                                            incident, with an "event")
//	{"t":"obs","worker":...,"tl":...,"hp":...}  coordinator only: one per
//	                                            finished shard whose
//	                                            timeline/profile was
//	                                            harvested
//	{"t":"state","state":...}                   state transitions; a
//	                                            terminal one ends the job
//
// Terminal states are "done" (with the serialized study), "failed" and
// "cancelled". The non-terminal "interrupted" marker is written on
// graceful drain; a journal whose last state is non-terminal is resumed
// on restart: the replayed "exp" records become Config.Completed and the
// deterministic per-index seed schedule re-runs only the missing
// indices, reproducing the uninterrupted study's statistics exactly.
//
// Each record is written with a single write(2) call so a crash can at
// worst truncate the final line; Replay tolerates (and reports) a
// truncated tail and ignores it.

// journalRecord is one line of a job journal.
type journalRecord struct {
	T string `json:"t"`

	// submit fields. Tenant rides in the submit record so per-tenant
	// quotas survive daemon restarts.
	ID     string `json:"id,omitempty"`
	Spec   *Spec  `json:"spec,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	// exp fields. Index uses a pointer so index 0 survives omitempty.
	Index  *int                       `json:"i,omitempty"`
	Seed   int64                      `json:"seed,omitempty"`
	Result *campaign.ExperimentResult `json:"r,omitempty"`

	// harvest fields (Worker is shared with "obs" records): one
	// coordinator harvest checkpoint — N new triples pulled from Worker
	// over NS nanoseconds of worker wall time, stamped At. Event marks
	// fleet incidents ("reassigned", "worker_lost") journaled through
	// the same channel so the fleet metrics view survives restarts.
	Worker string     `json:"worker,omitempty"`
	N      int        `json:"n,omitempty"`
	NS     int64      `json:"ns,omitempty"`
	At     *time.Time `json:"at,omitempty"`
	Event  string     `json:"event,omitempty"`

	// obs fields: a finished shard's harvested observability.
	Timeline *obs.Timeline    `json:"tl,omitempty"`
	Profile  *profile.Profile `json:"hp,omitempty"`

	// state fields.
	State string          `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
	Study json.RawMessage `json:"study,omitempty"`
}

// Journal appends records for one job. Safe for concurrent use (the
// campaign worker pool checkpoints from many goroutines).
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	fsync  bool
	closed bool
	err    error
}

// JournalPath returns the journal file of a job id under dir.
func JournalPath(dir, id string) string {
	return filepath.Join(dir, id+".jsonl")
}

// OpenJournal opens (creating if needed) a job journal for appending.
// When fsync is set every record is fdatasync'd — surviving power loss
// instead of just process death, at a per-experiment cost.
func OpenJournal(path string, fsync bool) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, fsync: fsync}, nil
}

// append marshals and writes one record as a single line. Errors are
// sticky: after the first failure the journal stops writing and Err
// reports it (a checkpoint hook must not take down the study).
func (j *Journal) append(rec journalRecord) {
	line, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.err = err
		return
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			j.err = err
		}
	}
}

// Submit records the job's identity and spec (the journal's first line).
func (j *Journal) Submit(id string, spec Spec) {
	j.SubmitAs(id, spec, "")
}

// SubmitAs is Submit with the authenticated tenant recorded alongside
// the spec.
func (j *Journal) SubmitAs(id string, spec Spec, tenant string) {
	j.append(journalRecord{T: "submit", ID: id, Spec: &spec, Tenant: tenant})
}

// Experiment checkpoints one completed experiment.
func (j *Journal) Experiment(index int, seed int64, r *campaign.ExperimentResult) {
	j.append(journalRecord{T: "exp", Index: &index, Seed: seed, Result: r})
}

// Harvest checkpoints one coordinator harvest observation: n new triples
// pulled from worker over ns nanoseconds (or, with n == 0, a fleet
// incident tagged by event). The per-worker throughput history this
// accumulates is what GET /v1/fleet aggregates — and journaling it next
// to the experiment checkpoints is what lets a restarted coordinator
// keep that history.
func (j *Journal) Harvest(c HarvestCheckpoint) {
	at := c.At
	j.append(journalRecord{
		T: "harvest", Worker: c.Worker, N: c.N, NS: c.NS, At: &at,
		Event: c.Event,
	})
}

// Obs records a finished shard's harvested observability (either part
// may be nil when the job only asked for the other).
func (j *Journal) Obs(worker string, tl *obs.Timeline, hp *profile.Profile) {
	j.append(journalRecord{T: "obs", Worker: worker, Timeline: tl, Profile: hp})
}

// State records a state transition. study (may be nil) is the serialized
// final result for the "done" state; errMsg annotates "failed".
func (j *Journal) State(state, errMsg string, study json.RawMessage) {
	j.append(journalRecord{T: "state", State: state, Error: errMsg, Study: study})
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// HarvestCheckpoint is one replayed (or live) coordinator harvest
// observation: N new triples from Worker over NS nanoseconds, stamped
// At. N == 0 records carry a fleet incident in Event instead.
type HarvestCheckpoint struct {
	Worker string
	N      int
	NS     int64
	At     time.Time
	Event  string
}

// ShardObs is one shard's harvested observability: the worker that ran
// it plus whichever of timeline and profile the job asked for.
type ShardObs struct {
	Worker   string
	Timeline *obs.Timeline
	Profile  *profile.Profile
}

// Replay is the reconstructed state of one journaled job.
type Replay struct {
	ID        string
	Spec      Spec
	Tenant    string
	Completed map[int]*campaign.ExperimentResult
	// Harvests/ShardObs replay the coordinator's harvest checkpoints and
	// harvested shard observability (empty for plain jobs).
	Harvests []HarvestCheckpoint
	ShardObs []ShardObs
	// State is the last recorded state ("" when only the submit record
	// exists — the job never started).
	State string
	Error string
	Study json.RawMessage
	// Truncated reports a partial final line (in-flight write at crash
	// time); the line is ignored.
	Truncated bool
}

// Terminal reports whether the replayed job finished for good.
func (r *Replay) Terminal() bool { return terminalState(r.State) }

// ReplayJournal reads a job journal back. Unknown record kinds are
// skipped (forward compatibility); a truncated or corrupt final line is
// tolerated; corruption anywhere else is an error.
func ReplayJournal(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rp := &Replay{Completed: map[int]*campaign.ExperimentResult{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			// A corrupt line followed by more lines is real damage, not
			// a crash-truncated tail.
			return nil, pendingErr
		}
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("%s: corrupt journal line: %w", path, err)
			rp.Truncated = true
			continue
		}
		switch rec.T {
		case "submit":
			rp.ID, rp.Spec, rp.Tenant = rec.ID, *rec.Spec, rec.Tenant
		case "exp":
			if rec.Index != nil && rec.Result != nil {
				rp.Completed[*rec.Index] = rec.Result
			}
		case "harvest":
			c := HarvestCheckpoint{
				Worker: rec.Worker, N: rec.N, NS: rec.NS, Event: rec.Event,
			}
			if rec.At != nil {
				c.At = *rec.At
			}
			rp.Harvests = append(rp.Harvests, c)
		case "obs":
			rp.ShardObs = append(rp.ShardObs, ShardObs{
				Worker: rec.Worker, Timeline: rec.Timeline, Profile: rec.Profile,
			})
		case "state":
			rp.State, rp.Error = rec.State, rec.Error
			if len(rec.Study) > 0 {
				rp.Study = rec.Study
			}
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("%s: journal line too long", path)
		}
		return nil, err
	}
	if rp.ID == "" {
		return nil, fmt.Errorf("%s: journal has no submit record", path)
	}
	return rp, nil
}

// ScanJournals replays every job journal under dir, in name order. The
// file skip names, when it lies in dir, is passed over unread: it is the
// daemon's history store, which defaults to dir/history.jsonl and is no
// job journal. Unreadable files are reported through damaged and
// skipped, so one bad journal cannot block a daemon restart.
func ScanJournals(dir, skip string, damaged func(path string, err error)) ([]*Replay, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var skipInfo os.FileInfo
	if skip != "" {
		skipInfo, _ = os.Stat(skip) // a missing file matches nothing
	}
	var out []*Replay
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".jsonl") {
			continue
		}
		if skipInfo != nil {
			if fi, err := ent.Info(); err == nil && os.SameFile(fi, skipInfo) {
				continue
			}
		}
		path := filepath.Join(dir, ent.Name())
		rp, err := ReplayJournal(path)
		if err != nil {
			if damaged != nil {
				damaged(path, err)
			}
			continue
		}
		out = append(out, rp)
	}
	return out, nil
}

var _ io.Closer = (*Journal)(nil)
