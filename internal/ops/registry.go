package ops

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// Bound is one node's kernel, bound once by Bind: its op is looked up, its
// constant GEMM/Conv weight is packed and its elementwise stage program
// decoded, so a run does no registry lookup, packing or decoding.
// It is read-only once the owner has finished setting Packed, and safe to
// run from any number of goroutines.
type Bound struct {
	// Packed holds the node's compile-time-packed constant weight, nil when
	// nothing was packed. Nodes whose packing would be identical (one weight
	// tensor, same layout attributes) may share one: the executor points a
	// replica's Packed at the first node's before any run.
	Packed *Prepacked
	// inPlace marks ops with an in-place form: the unary elementwise ops
	// and FusedElementwise.
	inPlace bool
	run     func(in []*tensor.Tensor, a tensor.Allocator, pp *Prepacked, inPlace bool) ([]*tensor.Tensor, error)
}

// Run executes the node on its inputs, allocating every output (and any
// sizable scratch buffer) through a; nil means the heap. With inPlace set —
// legal only when InPlace reports true and the caller holds the only
// reference to in[0] — the output takes over in[0]'s storage: the returned
// tensor shares it, or (a FusedElementwise stage that broadcasts) the
// kernel has already returned it to a. Either way the caller must not
// release in[0] afterwards.
func (b *Bound) Run(in []*tensor.Tensor, a tensor.Allocator, inPlace bool) ([]*tensor.Tensor, error) {
	return b.run(in, a, b.Packed, inPlace)
}

// InPlace reports whether Run has an in-place form. The executor combines
// it with the memory plan's liveness proof (memplan.CanWriteInPlace);
// neither alone is sufficient.
func (b *Bound) InPlace() bool { return b.inPlace }

// binder binds one node of an op from its attributes and constant inputs.
type binder func(attrs Attrs, consts []*tensor.Tensor) *Bound

// kernel binds an op that needs no preparation: every run calls k with the
// node's attributes.
func kernel(k AllocKernel) binder {
	return func(attrs Attrs, _ []*tensor.Tensor) *Bound {
		return &Bound{run: func(in []*tensor.Tensor, a tensor.Allocator, _ *Prepacked, _ bool) ([]*tensor.Tensor, error) {
			return k(in, attrs, a)
		}}
	}
}

// registry maps every ONNX-style op-type name to its binder; the built-in
// set is this table plus the elementwise table's ops. regMu makes a late Register (embedders,
// fault-injection harnesses) safe against concurrent binds. Binds run when
// a program is compiled, not per-op execution, so the read lock costs
// nothing measurable.
var (
	regMu    sync.RWMutex
	registry = map[string]binder{
		"Conv":               bindConv,
		"MaxPool":            bindPool("MaxPool"),
		"AveragePool":        bindPool("AveragePool"),
		"GlobalAveragePool":  bindPool("GlobalAveragePool"),
		"MatMul":             bindMatMul,
		"Gemm":               packed("Gemm", gemmK),
		"FusedElementwise":   bindFused,
		"Softmax":            kernel(softmaxK),
		"BatchNormalization": kernel(batchNormK),
		"LayerNormalization": kernel(layerNormK),
		"ReduceMean":         kernel(reduceMeanK),
		"Resize":             kernel(resizeK),
		"Concat":             kernel(concatK),
		"Reshape":            kernel(reshapeK),
		"Flatten":            kernel(flattenK),
		"Transpose":          kernel(transposeK),
		"Slice":              kernel(sliceK),
		"Gather":             kernel(gatherK),
		"Split":              kernel(splitK),
		"Squeeze":            kernel(squeezeK),
		"Unsqueeze":          kernel(unsqueezeK),
		"Shape":              kernel(shapeOpK),
		"Constant":           kernel(constantK),
	}
)

func init() {
	for op := range elementwise {
		registry[op] = bindElementwise(op)
	}
}

// Register installs a kernel for a custom op type — the extension point
// embedders and fault-injection harnesses use to add operators without
// forking the built-in set. Safe for concurrent use. Nodes bind their
// kernel when a program is compiled, so programs compiled before the call
// keep the kernels they bound; a node of the new op type binds it from the
// next compile on.
func Register(name string, k AllocKernel) error {
	if name == "" || k == nil {
		return fmt.Errorf("ops: Register requires a name and a kernel")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("ops: kernel already registered for %q", name)
	}
	registry[name] = kernel(k)
	return nil
}

// Bind binds one node's kernel: it looks the op type up once, packs the
// node's constant GEMM/Conv weight or decodes its FusedElementwise stage
// program where it can, and records whether the op has an in-place form.
// consts mirrors the node's inputs positionally, nil for anything that is
// not a graph constant; nil consts bind for operands that only arrive at
// run time.
//
// An unknown op type yields an error together with a binding whose every
// Run fails with that error, so a caller may instead report it when the
// node runs.
func Bind(opType string, attrs Attrs, consts []*tensor.Tensor) (*Bound, error) {
	regMu.RLock()
	bind, ok := registry[opType]
	regMu.RUnlock()
	if !ok {
		err := fmt.Errorf("ops: no kernel registered for op type %q", opType)
		return &Bound{run: func([]*tensor.Tensor, tensor.Allocator, *Prepacked, bool) ([]*tensor.Tensor, error) {
			return nil, err
		}}, err
	}
	return bind(attrs, consts), nil
}

// Supported reports whether a kernel exists for the op type.
func Supported(opType string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[opType]
	return ok
}

// Names returns all registered op-type names, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}
