package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vulfi/internal/atlas"
	"vulfi/internal/campaign"
)

// quiet discards server logs during tests.
func quiet(string, ...any) {}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.JournalDir == "" {
		opts.JournalDir = t.TempDir()
	}
	if opts.Logf == nil {
		opts.Logf = quiet
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitState polls until the job reaches want (or any terminal state,
// reported as a failure if it is not want).
func waitState(t *testing.T, s *Server, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		job := s.Job(id)
		if job == nil {
			t.Fatalf("job %s disappeared", id)
		}
		st := job.Status()
		if st.State == want {
			return st
		}
		if terminalState(st.State) {
			t.Fatalf("job %s reached %q (error %q), want %q",
				id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return Status{}
}

func postJob(t *testing.T, url string, spec Spec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServerEndToEnd drives the whole HTTP surface on one tiny study:
// submit (202), status polling to "done", result payload, job listing,
// per-job and process metrics, SSE replay of a finished job, and spec
// validation (400).
func TestServerEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJob(t, ts.URL, testSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != testSpec().Total() {
		t.Fatalf("submit returned %+v", st)
	}

	final := waitState(t, s, st.ID, StateDone)
	if final.Done != final.Total || len(final.Result) == 0 {
		t.Fatalf("done job: %d/%d experiments, result %d bytes",
			final.Done, final.Total, len(final.Result))
	}
	var study struct {
		SDC, Benign, Crash int
		Campaigns          int `json:"campaigns"`
	}
	if err := json.Unmarshal(final.Result, &study); err != nil {
		t.Fatalf("result is not a study: %v", err)
	}
	if study.SDC+study.Benign+study.Crash != final.Total {
		t.Fatalf("study outcomes %d+%d+%d don't cover %d experiments",
			study.SDC, study.Benign, study.Crash, final.Total)
	}

	// GET one job over HTTP agrees with the in-process status.
	hresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var got Status
	if err := json.Unmarshal(hraw, &got); err != nil {
		t.Fatal(err)
	}
	// The wire form is re-indented, so compare the payloads semantically.
	var wantStudy, gotStudy any
	if err := json.Unmarshal(final.Result, &wantStudy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Result, &gotStudy); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !reflect.DeepEqual(wantStudy, gotStudy) {
		t.Fatalf("HTTP status %q disagrees with job state", got.State)
	}

	// Listings stay light: no result payload.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	lraw, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if !strings.Contains(string(lraw), st.ID) ||
		strings.Contains(string(lraw), `"result"`) {
		t.Fatalf("listing: %s", lraw)
	}

	// Metrics: the process registry counts the job, the per-job registry
	// carries campaign phase instruments.
	for path, want := range map[string]string{
		"/metrics":                       "server_jobs_submitted_total 1",
		"/v1/jobs/" + st.ID + "/metrics": "campaign_experiments_total",
		"/v1/jobs/" + st.ID + "/events":  `"state":"done"`,
		"/healthz":                       "ok",
	} {
		mresp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		mraw, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mraw), want) {
			t.Fatalf("GET %s: %s\n%s", path, mresp.Status, mraw)
		}
	}

	// Validation failures are 400s, not jobs.
	for _, bad := range []Spec{
		{Benchmark: "NoSuchBenchmark", ISA: "AVX", Category: "control"},
		{Benchmark: "VectorCopy", ISA: "AVX", Category: "sideways"},
	} {
		resp, _ := postJob(t, ts.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %+v accepted: %s", bad, resp.Status)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/jnope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
}

// TestServerBackpressureAndCancel: with one runner and a single queue
// slot, a long job occupies the runner, a second fills the queue, and a
// third submission is rejected with 429 + Retry-After. Cancelling then
// works on both a queued and a running job.
func TestServerBackpressureAndCancel(t *testing.T) {
	s := newTestServer(t, Options{QueueSize: 1, Runners: 1})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Slow enough that it is still running when we cancel it below.
	slow := Spec{
		Benchmark: "Blackscholes", ISA: "AVX", Category: "control",
		Experiments: 100, Campaigns: 20, Seed: 7, Workers: 1,
	}
	_, raw := postJob(t, ts.URL, slow)
	var running Status
	if err := json.Unmarshal(raw, &running); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)

	_, raw = postJob(t, ts.URL, testSpec())
	var queued Status
	if err := json.Unmarshal(raw, &queued); err != nil {
		t.Fatal(err)
	}

	resp, raw := postJob(t, ts.URL, testSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %s: %s, want 429", resp.Status, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	del := func(id string) *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Queued job: cancelled on the spot, never runs.
	if resp := del(queued.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: %s", resp.Status)
	}
	if st := waitState(t, s, queued.ID, StateCancelled); st.Done != 0 {
		t.Fatalf("cancelled-while-queued job ran %d experiments", st.Done)
	}
	// Running job: cooperative, reaches cancelled without finishing.
	if resp := del(running.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: %s", resp.Status)
	}
	if st := waitState(t, s, running.ID, StateCancelled); st.Done >= st.Total {
		t.Fatalf("cancelled job ran all %d experiments", st.Total)
	}
	// Cancelling a terminal job conflicts.
	if resp := del(running.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %s, want 409", resp.Status)
	}
}

// stripWall removes the wall-clock fields — the only part of a study
// export that legitimately differs between an uninterrupted run and an
// interrupted-then-resumed one.
func stripWall(t *testing.T, study json.RawMessage) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(study, &m); err != nil {
		t.Fatalf("bad study payload: %v", err)
	}
	for _, k := range []string{
		"wall_total_ns", "wall_min_ns", "wall_mean_ns", "wall_max_ns",
	} {
		delete(m, k)
	}
	return m
}

// TestServerDrainResumeIdentical is the acceptance criterion in-process:
// interrupt a daemon mid-study (graceful drain, as SIGTERM triggers), a
// fresh daemon over the same journal directory must resume the job from
// its checkpoints, and the final StudyResult — SDC/Benign/Crash counts,
// per-campaign rates and confidence interval — must be identical to the
// same spec run uninterrupted.
func TestServerDrainResumeIdentical(t *testing.T) {
	spec := Spec{
		Benchmark: "Blackscholes", ISA: "AVX", Category: "control",
		Experiments: 10, Campaigns: 20, Seed: 99, Workers: 1,
	}

	// Uninterrupted reference, straight on the campaign layer.
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	refCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ref, err := campaign.RunStudy(refCtx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := stripWall(t, marshalStudy(ref))

	dir := t.TempDir()
	// Throttle the first daemon's experiments so the 200-experiment
	// study reliably outlasts the drain below regardless of machine
	// speed (10ms × 200 ≈ 2s floor; the drain lands within tens of ms).
	// The resumed daemon runs unthrottled.
	s1 := newTestServer(t, Options{JournalDir: dir, expThrottle: 10 * time.Millisecond})
	job, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Tail live progress and pull the plug after a few checkpoints.
	ch, unsub := job.Subscribe()
	experiments := 0
	deadline := time.After(2 * time.Minute)
	for experiments < 1 {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("job finished before it could be interrupted; grow the spec")
			}
			if ev.Type == "experiment" {
				experiments++
			}
		case <-deadline:
			t.Fatal("no experiment events")
		}
	}
	unsub()
	drain(t, s1)

	st := job.Status()
	if terminalState(st.State) {
		t.Fatalf("drained mid-run job is %q, want non-terminal", st.State)
	}
	if st.Done == 0 || st.Done >= st.Total {
		t.Fatalf("interrupted at %d/%d experiments, want strictly between",
			st.Done, st.Total)
	}
	t.Logf("interrupted at %d/%d experiments", st.Done, st.Total)

	// Second daemon lifetime over the same journal directory.
	s2 := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s2)
	resumed := s2.Job(job.ID)
	if resumed == nil {
		t.Fatal("job not found after restart")
	}
	if st := resumed.Status(); !st.Resumed || st.Done == 0 {
		t.Fatalf("restarted job %+v not marked resumed with checkpoints", st)
	}
	final := waitState(t, s2, job.ID, StateDone)
	if final.Done != final.Total {
		t.Fatalf("resumed job finished at %d/%d", final.Done, final.Total)
	}
	got := stripWall(t, final.Result)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed study differs from uninterrupted run:\nwant %v\ngot  %v",
			want, got)
	}
}

// TestServerResumeSkipsTerminalJobs: finished jobs survive a restart for
// status queries but are not re-queued or re-run.
func TestServerResumeSkipsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{JournalDir: dir})
	job, err := s1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s1, job.ID, StateDone)
	drain(t, s1)

	s2 := newTestServer(t, Options{JournalDir: dir})
	defer drain(t, s2)
	kept := s2.Job(job.ID)
	if kept == nil {
		t.Fatal("terminal job forgotten after restart")
	}
	st := kept.Status()
	if st.State != StateDone || !bytes.Equal(st.Result, final.Result) {
		t.Fatalf("terminal job replayed as %q with different result", st.State)
	}
	if got := s2.mx.resumed.Value(); got != 0 {
		t.Fatalf("terminal job counted as resumed (%d)", got)
	}
}

// TestServerResumeIgnoresHistoryStore: the default history store lives
// in the journal directory, but a restart must not replay it as a job
// journal. No "damaged journal" line is logged, the finished job is
// still listed, and its history entry survives byte for byte.
func TestServerResumeIgnoresHistoryStore(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{JournalDir: dir})
	job, err := s1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, job.ID, StateDone)
	drain(t, s1)
	histPath := filepath.Join(dir, "history.jsonl")
	before, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	s2 := newTestServer(t, Options{JournalDir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	defer drain(t, s2)
	mu.Lock()
	for _, line := range logs {
		if strings.Contains(line, "damaged journal") {
			t.Errorf("restart logged %q", line)
		}
	}
	mu.Unlock()
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("restart lists %d jobs, want only %s", len(jobs), job.ID)
	}
	after, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("history store changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	entries, err := atlas.ReadHistory(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Job != job.ID {
		t.Fatalf("history holds %d entries, want one for job %s", len(entries), job.ID)
	}
}
