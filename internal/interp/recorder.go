package interp

import "vulfi/internal/ir"

// Recorder receives every retired instruction together with its result
// value. It is the structured hot-path hook the trace package's ring
// buffer attaches to. Implementations must be cheap and must not retain
// v or its Bits slice beyond the call — copy what they keep. Phi nodes
// are retired with their post-parallel-copy value; void instructions
// (stores, void calls) are retired with a zero Value; terminators
// (br/condbr/ret/unreachable) are not retired, control flow is implied
// by the instruction sequence.
type Recorder interface {
	Retire(in *ir.Instr, dyn uint64, v Value)
}

// SetRecorder installs (or, with nil, removes) an execution recorder.
// Disabled recording costs one nil check per retired instruction.
func (it *Interp) SetRecorder(r Recorder) { it.rec = r }
