package exec

import (
	"fmt"
	"strings"
)

// StuckOp pinpoints where one lane of an aborted run stopped: the next node
// it would have executed and how far through its order it got.
type StuckOp struct {
	Lane  int    `json:"lane"`
	Node  string `json:"node"`
	Op    string `json:"op"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

func (s StuckOp) String() string {
	return fmt.Sprintf("lane %d at %s(%s) %d/%d", s.Lane, s.Node, s.Op, s.Done, s.Total)
}

// StallError annotates a cancellation-class run failure (context cancelled,
// deadline expired, watchdog kill) with the lane/op positions where the run
// unwound — the runtime analogue of the compile-time deadlock guard's stuck
// list. It wraps the underlying ctx error, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) keep
// matching, and the diagnostic rides the error string into logs and trace
// spans.
type StallError struct {
	Err   error
	Stuck []StuckOp
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v (stalled:", e.Err)
	for i, s := range e.Stuck {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(' ')
		b.WriteString(s.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (e *StallError) Unwrap() error { return e.Err }

// stuckAt lists up to four lanes that had not finished their order when the
// run aborted, each with the node it stopped before. Call only after every
// lane goroutine has exited (wg.Wait provides the happens-before edge for
// the unsynchronized position reads).
func (p *Plan) stuckAt(runs []laneRun) []StuckOp {
	var stuck []StuckOp
	for li, lane := range p.Lanes {
		d := runs[li].done
		if d >= len(lane) {
			continue
		}
		n := lane[d]
		stuck = append(stuck, StuckOp{Lane: li, Node: n.Name, Op: n.OpType, Done: d, Total: len(lane)})
		if len(stuck) >= 4 {
			break
		}
	}
	return stuck
}
