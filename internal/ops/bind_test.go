package ops

import (
	"testing"

	"repro/internal/tensor"
)

// call runs op on the heap through a binding with no constants, the way
// the sequential reference executor runs every node.
func call(op string, in []*tensor.Tensor, attrs Attrs) ([]*tensor.Tensor, error) {
	k, err := Bind(op, attrs, nil)
	if err != nil {
		return nil, err
	}
	return k.Run(in, nil, false)
}

// TestEveryOpBindsWithoutConstants: every registered op binds with nil
// attributes and nil constants — the call-time form the sequential
// executor, constant folding and generated code use.
func TestEveryOpBindsWithoutConstants(t *testing.T) {
	for _, name := range Names() {
		k, err := Bind(name, nil, nil)
		if err != nil {
			t.Errorf("Bind(%s): %v", name, err)
			continue
		}
		if k.Packed != nil {
			t.Errorf("Bind(%s) packed weights without constants", name)
		}
	}
}
