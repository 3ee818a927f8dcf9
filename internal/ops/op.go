// Package ops implements the operator kernels executed by the Ramiel
// runtime: convolution, matrix multiplication, activations, normalization,
// pooling and tensor-shape manipulation, in the subset of ONNX semantics the
// evaluation models require. It substitutes for the paper's PyTorch
// backend: every kernel computes real values on internal/tensor data, and
// the heavy kernels honor tensor.IntraOpThreads() — the analogue of
// PyTorch's OpenMP intra-operator parallelism.
package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// Attrs carries the attributes of one dataflow-graph node (strides, pads,
// axes, …). Values are ints, floats, strings, []int or []float32, mirroring
// the ONNX attribute kinds we need. A nil Attrs behaves as empty.
type Attrs map[string]any

// Int returns the integer attribute name, or def when absent. It accepts
// int, int64 and float64 storage (the latter appears after JSON round trips).
func (a Attrs) Int(name string, def int) int {
	v, ok := a[name]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case float64:
		return int(x)
	}
	return def
}

// Float returns the float attribute name, or def when absent.
func (a Attrs) Float(name string, def float64) float64 {
	v, ok := a[name]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int:
		return float64(x)
	}
	return def
}

// Str returns the string attribute name, or def when absent.
func (a Attrs) Str(name, def string) string {
	if v, ok := a[name].(string); ok {
		return v
	}
	return def
}

// Ints returns the []int attribute name, or def when absent. JSON decoding
// yields []any of float64, which is converted.
func (a Attrs) Ints(name string, def []int) []int {
	v, ok := a[name]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case []int:
		return x
	case []int64:
		out := make([]int, len(x))
		for i, e := range x {
			out[i] = int(e)
		}
		return out
	case []any:
		out := make([]int, len(x))
		for i, e := range x {
			switch n := e.(type) {
			case float64:
				out[i] = int(n)
			case int:
				out[i] = n
			default:
				return def
			}
		}
		return out
	}
	return def
}

// Floats returns the []float32 attribute name, or def when absent.
func (a Attrs) Floats(name string, def []float32) []float32 {
	v, ok := a[name]
	if !ok {
		return def
	}
	switch x := v.(type) {
	case []float32:
		return x
	case []float64:
		out := make([]float32, len(x))
		for i, e := range x {
			out[i] = float32(e)
		}
		return out
	case []any:
		out := make([]float32, len(x))
		for i, e := range x {
			n, ok := e.(float64)
			if !ok {
				return def
			}
			out[i] = float32(n)
		}
		return out
	}
	return def
}

// Clone returns a shallow copy of the attribute map (attribute values are
// treated as immutable by convention).
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// AllocKernel evaluates one operator: it consumes the node's input tensors
// in declaration order and returns its outputs, allocating every output
// (and any sizable scratch buffer) through the run's allocator — nil means
// plain heap allocation. It is the one kernel signature: the registry's
// ops are built from it, Register accepts it, and Bind fixes a node's
// attributes around it. The executor passes its run arena here so
// steady-state inference recycles intermediate buffers instead of growing
// the GC heap.
//
// Two contracts make arena reuse sound and must hold for every kernel:
// inputs are never mutated (several clusters may read the same tensor
// concurrently), and outputs never alias inputs — each output is freshly
// allocated storage (shape-only ops like Reshape copy). The memory planner
// (internal/memplan) relies on both; a Bound's in-place form is the one
// scheduled exception.
type AllocKernel func(in []*tensor.Tensor, attrs Attrs, a tensor.Allocator) ([]*tensor.Tensor, error)

// argErr builds a uniform operator-argument error.
func argErr(op, format string, args ...any) error {
	return fmt.Errorf("ops: %s: %s", op, fmt.Sprintf(format, args...))
}

// need checks the input arity window [min, max]; max < 0 means unbounded.
func need(op string, in []*tensor.Tensor, min, max int) error {
	if len(in) < min || (max >= 0 && len(in) > max) {
		return argErr(op, "got %d inputs, want between %d and %d", len(in), min, max)
	}
	for i, t := range in {
		if t == nil {
			return argErr(op, "input %d is nil", i)
		}
	}
	return nil
}
