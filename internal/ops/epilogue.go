package ops

import "repro/internal/kernels"

// Writeback-epilogue attributes: the fusion pass (internal/passes) records
// a GEMM-shaped node's absorbed activation under these keys, and the
// Conv/Gemm/MatMul kernels apply it during the packed-C writeback
// (kernels.Epilogue) — the activation costs no extra memory pass.
const (
	AttrEpilogueOp    = "epi_op"
	AttrEpilogueAlpha = "epi_alpha"
	AttrEpilogueMin   = "epi_min"
	AttrEpilogueMax   = "epi_max"
)

// epilogueKeys are the parameter attributes of a writeback epilogue.
var epilogueKeys = paramKeys{AttrEpilogueAlpha, AttrEpilogueMin, AttrEpilogueMax}

// EpilogueAttrs encodes the activation node (opType, attrs) as epilogue
// attributes to merge into a Conv/Gemm/MatMul node, or nil when the
// activation cannot ride a GEMM writeback. Only activations that depend on
// nothing but the finished accumulator qualify.
func EpilogueAttrs(opType string, attrs Attrs) Attrs {
	p0, p1 := params(opType, attrs, nodeKeys)
	switch opType {
	case "Relu":
		return Attrs{AttrEpilogueOp: opType}
	case "LeakyRelu":
		return Attrs{AttrEpilogueOp: opType, AttrEpilogueAlpha: p0}
	case "Clip":
		return Attrs{AttrEpilogueOp: opType, AttrEpilogueMin: p0, AttrEpilogueMax: p1}
	}
	return nil
}

// epilogueOf decodes a node's fused writeback activation; the zero
// Epilogue (a plain writeback) when none is recorded.
func epilogueOf(attrs Attrs) kernels.Epilogue {
	op := attrs.Str(AttrEpilogueOp, "")
	p0, p1 := params(op, attrs, epilogueKeys)
	switch op {
	case "Relu":
		return kernels.Epilogue{Kind: kernels.EpiRelu}
	case "LeakyRelu":
		return kernels.Epilogue{Kind: kernels.EpiLeakyRelu, Alpha: float32(p0)}
	case "Clip":
		return kernels.Epilogue{Kind: kernels.EpiClip, Lo: float32(p0), Hi: float32(p1)}
	}
	return kernels.Epilogue{}
}
