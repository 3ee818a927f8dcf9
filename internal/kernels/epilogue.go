package kernels

// Epilogue is an activation applied to C during the packed writeback of the
// GEMM core — the last moment the output tile is guaranteed cache-hot. The
// fusion pass (internal/passes) attaches one to a Conv/Gemm/MatMul node when
// the node's only consumer is a matching activation, turning Conv→BN→Relu
// into exactly one kernel invocation: BN is folded into the weights at
// compile time and the Relu rides the writeback here.
//
// Only activations whose value depends on nothing but the finished
// accumulator qualify (Relu, LeakyRelu, Clip); they are applied once per C
// element, after the final K panel has accumulated into it. A per-column
// Bias rides the same writeback (cuBLASLt's EPILOGUE_BIAS): it is added to
// the finished element before the activation, so the value is exactly that
// of a separate Add followed by the activation.
type Epilogue struct {
	Kind  EpiKind
	Alpha float32 // LeakyRelu slope
	Lo    float32 // Clip lower bound
	Hi    float32 // Clip upper bound
	// Bias holds one value per column of C; nil adds nothing.
	Bias []float32
}

// EpiKind enumerates the fusable writeback activations.
type EpiKind uint8

const (
	// EpiNone is the zero Epilogue: a plain writeback.
	EpiNone EpiKind = iota
	// EpiRelu clamps negatives to zero.
	EpiRelu
	// EpiLeakyRelu scales negatives by Alpha.
	EpiLeakyRelu
	// EpiClip bounds values to [Lo, Hi].
	EpiClip
)

// None reports whether the epilogue is a no-op, letting hot paths skip the
// writeback sweep entirely.
func (e Epilogue) None() bool { return e.Kind == EpiNone && e.Bias == nil }

// Val applies the epilogue's activation to a single finished accumulator;
// it ignores Bias.
func (e Epilogue) Val(v float32) float32 {
	switch e.Kind {
	case EpiRelu:
		return max(v, 0)
	case EpiLeakyRelu:
		if v < 0 {
			return e.Alpha * v
		}
	case EpiClip:
		return min(max(v, e.Lo), e.Hi)
	}
	return v
}

// Apply applies the epilogue's activation (not Bias) to a finished slice of
// C in place.
func (e Epilogue) Apply(s []float32) { e.activation().apply(s) }

// activation is an Epilogue without its Bias, which the GEMM panel loop
// takes as a separate slice: carrying the whole Epilogue through the panel
// loop measured slower on squeezenet's Conv GEMMs.
type activation struct {
	kind          EpiKind
	alpha, lo, hi float32
}

func (e Epilogue) activation() activation { return activation{e.Kind, e.Alpha, e.Lo, e.Hi} }

// apply applies the activation to a finished slice of C in place. The
// kind switch is hoisted out of the element loop so each variant is a
// plain branch-per-element slice sweep.
func (a activation) apply(s []float32) {
	switch a.kind {
	case EpiRelu:
		// Branchless: random-sign accumulators would mispredict a
		// comparison on roughly half the elements.
		for i, v := range s {
			s[i] = max(v, 0)
		}
	case EpiLeakyRelu:
		alpha := a.alpha
		for i, v := range s {
			if v < 0 {
				s[i] = alpha * v
			}
		}
	case EpiClip:
		lo, hi := a.lo, a.hi
		for i, v := range s {
			s[i] = min(max(v, lo), hi)
		}
	}
}
