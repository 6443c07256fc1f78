package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one structured telemetry record: a completed span (DurNS > 0)
// or a point event. Events serialize as one JSON object per line
// (JSONL), so a study log is greppable and jq-able:
//
//	jq 'select(.type=="experiment") | .fields.outcome' out.jsonl
//
// The campaign layer emits one per study, campaign and experiment span.
type Event struct {
	// Type names the event class: "study", "campaign" or "experiment".
	Type string `json:"type"`
	// Name identifies the subject (e.g. a study cell "Blackscholes/AVX/control").
	Name string `json:"name,omitempty"`
	// Time is the wall-clock emission time in RFC3339Nano; Emit stamps
	// it when zero.
	Time time.Time `json:"time"`
	// DurNS is the span duration in nanoseconds (0 for point events).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Fields carries event-specific payload; map keys serialize sorted,
	// so identical payloads produce identical lines.
	Fields map[string]any `json:"fields,omitempty"`
}

// EventWriter serializes events to an io.Writer as JSONL, safe for
// concurrent emitters. A nil *EventWriter is a valid no-op sink, so
// call sites need no nil checks.
type EventWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	w   io.Writer
	n   uint64
	err error
}

// NewEventWriter wraps w (buffered; call Flush or Close when done).
func NewEventWriter(w io.Writer) *EventWriter {
	return &EventWriter{bw: bufio.NewWriter(w), w: w}
}

// Emit writes one event as a single JSON line, stamping Time if unset.
// Emission errors are sticky and reported by Err; Emit itself never
// fails loudly so instrumentation cannot break a campaign.
func (ew *EventWriter) Emit(e Event) {
	if ew == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	line, err := json.Marshal(e)
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if err != nil {
		if ew.err == nil {
			ew.err = err
		}
		return
	}
	if ew.err != nil {
		return
	}
	if _, err := ew.bw.Write(append(line, '\n')); err != nil {
		ew.err = err
		return
	}
	ew.n++
}

// Count returns the number of events written so far.
func (ew *EventWriter) Count() uint64 {
	if ew == nil {
		return 0
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.n
}

// Err returns the first emission error, if any.
func (ew *EventWriter) Err() error {
	if ew == nil {
		return nil
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.err
}

// Flush drains the internal buffer to the underlying writer.
func (ew *EventWriter) Flush() error {
	if ew == nil {
		return nil
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if err := ew.bw.Flush(); err != nil && ew.err == nil {
		ew.err = err
	}
	return ew.err
}

// Close flushes and, when the underlying writer is an io.Closer,
// closes it.
func (ew *EventWriter) Close() error {
	if ew == nil {
		return nil
	}
	err := ew.Flush()
	if c, ok := ew.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
