// Graph-level operator fusion: the compile-time half of the fusion layer.
// Five rewrites run in sequence (Fuse), each semantics-preserving:
//
//  1. FoldBatchNorms — inference-mode BatchNormalization with constant
//     parameters following a Conv/Gemm is folded into the producer's
//     weights and bias, deleting the BN's whole memory pass. Folded
//     weights are fresh initializers, so they compose with the prepack
//     pass (packed once at Compile) and never mutate tensors shared with
//     the caller's graph.
//  2. FoldBiases — Add(MatMul(x, W), b) with a constant [N] bias becomes a
//     MatMul with b as a third input, added in the GEMM writeback
//     (gemm_fold.go).
//  3. FoldViews — Reshape→Transpose chains into a MatMul operand and
//     Transpose→Reshape chains out of its output become views the kernel
//     addresses through strides, so the chains' copies disappear.
//  4. AttachEpilogues — a Relu/LeakyRelu/Clip whose only producer is a
//     Conv/Gemm/MatMul is absorbed into the producer as a writeback
//     epilogue (ops.EpilogueAttrs): the kernel applies it while each
//     output tile is cache-hot, so Conv→BN→Relu becomes exactly one
//     kernel invocation.
//  5. FuseElementwise — remaining chains of elementwise ops collapse into
//     single FusedElementwise nodes executed as one specialized sweep
//     (internal/ops/fused.go): one memory pass and one node where there
//     were k of each.
//
// Pass ordering within Compile: constant folding + DCE (Prune) → Fuse →
// clustering → prepack. Fusion must precede prepack so folded weights are
// what gets packed, and precede clustering so a fused chain schedules as
// one unit.
package passes

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// FusionReport summarizes one Fuse run.
type FusionReport struct {
	// BNFolded counts BatchNormalization nodes folded into their producer.
	BNFolded int
	// Biases counts bias Adds absorbed into MatMuls.
	Biases int
	// ViewNodes counts Transpose and Reshape nodes folded into MatMul
	// views.
	ViewNodes int
	// Epilogues counts activations absorbed into GEMM-shaped kernels.
	Epilogues int
	// Chains counts FusedElementwise nodes created.
	Chains int
	// ChainNodes counts the elementwise nodes those chains collapsed.
	ChainNodes int
}

// NodesRemoved is the net node-count reduction of the run.
func (r FusionReport) NodesRemoved() int {
	return r.BNFolded + r.Biases + r.ViewNodes + r.Epilogues + r.ChainNodes - r.Chains
}

// Any reports whether the run changed the graph.
func (r FusionReport) Any() bool { return r.NodesRemoved() > 0 }

// Fuse runs the full operator-fusion pipeline on g in place.
func Fuse(g *graph.Graph) (FusionReport, error) {
	rep := FusionReport{}
	var err error
	if rep.BNFolded, err = FoldBatchNorms(g); err != nil {
		return rep, err
	}
	if rep.Biases, err = FoldBiases(g); err != nil {
		return rep, err
	}
	if rep.ViewNodes, err = FoldViews(g); err != nil {
		return rep, err
	}
	if rep.Epilogues, err = AttachEpilogues(g); err != nil {
		return rep, err
	}
	if rep.Chains, rep.ChainNodes, err = FuseElementwise(g); err != nil {
		return rep, err
	}
	if rep.Any() {
		// Folding leaves the original weight initializers unreferenced;
		// drop them (and anything else fusion orphaned).
		EliminateDeadCode(g)
		if err := g.Validate(); err != nil {
			return rep, fmt.Errorf("passes: fusion corrupted graph: %w", err)
		}
	}
	return rep, nil
}

// hasFusionAttrs reports whether a node already carries an absorbed
// epilogue; such nodes compute more than their OpType says, so structural
// rewrites must leave them alone.
func hasFusionAttrs(n *graph.Node) bool {
	return n.Attrs.Str(ops.AttrEpilogueOp, "") != ""
}

// constParam returns the initializer bound to name when it is a true
// compile-time constant: present and not overridable by a feed (a name
// that is also a declared graph input is feedable and must not be folded).
func constParam(g *graph.Graph, name string) *tensor.Tensor {
	t := g.Initializers[name]
	if t == nil || g.IsGraphInput(name) {
		return nil
	}
	return t
}

// soleConsumerEdge checks the producer→consumer fusion precondition: p's
// single output feeds exactly one consumer and is not a graph output.
// Returns that consumer, or nil.
func soleConsumerEdge(g *graph.Graph, p *graph.Node) *graph.Node {
	if len(p.Outputs) != 1 || g.IsGraphOutput(p.Outputs[0]) {
		return nil
	}
	cs := g.Consumers(p.Outputs[0])
	if len(cs) != 1 {
		return nil
	}
	return cs[0]
}

// FoldBatchNorms folds every eligible BatchNormalization into the Conv or
// Gemm producing its input and returns the number folded. Eligibility:
// the producer's output has the BN as sole consumer, the BN's four
// parameters and the producer's weights (and bias, if any) are constant
// initializers not overridable by feeds, and channel counts line up.
//
// Like FoldBiases, it rebuilds the graph's index once, at the end. A fold
// moves the BN's output to the producer through SetOutput, so a second BN
// after the first one finds the Conv as its producer and folds too; every
// other stale entry names a removed BN or a parameter only a removed BN
// read.
func FoldBatchNorms(g *graph.Graph) (int, error) {
	folded := 0
	removed := map[*graph.Node]bool{}
	for _, bn := range g.Nodes {
		if removed[bn] || bn.OpType != "BatchNormalization" || len(bn.Inputs) != 5 || len(bn.Outputs) != 1 {
			continue
		}
		p := g.Producer(bn.Inputs[0])
		if p == nil || removed[p] || (p.OpType != "Conv" && p.OpType != "Gemm") {
			continue
		}
		if hasFusionAttrs(p) || soleConsumerEdge(g, p) != bn {
			continue
		}
		var params [4]*tensor.Tensor // scale, bias, mean, variance
		ok := true
		for i, name := range bn.Inputs[1:] {
			if params[i] = constParam(g, name); params[i] == nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		eps := bn.Attrs.Float("epsilon", 1e-5)
		c := params[0].Numel()
		if params[1].Numel() != c || params[2].Numel() != c || params[3].Numel() != c {
			continue
		}
		// Per-channel affine: BN(y) = a⊙y + b.
		a := make([]float32, c)
		b := make([]float32, c)
		sd, bd, md, vd := params[0].Data(), params[1].Data(), params[2].Data(), params[3].Data()
		for ch := 0; ch < c; ch++ {
			inv := float32(1 / math.Sqrt(float64(vd[ch])+eps))
			a[ch] = sd[ch] * inv
			b[ch] = bd[ch] - md[ch]*sd[ch]*inv
		}
		var did bool
		switch p.OpType {
		case "Conv":
			did = foldBNIntoConv(g, p, a, b)
		case "Gemm":
			did = foldBNIntoGemm(g, p, a, b)
		}
		if !did {
			continue
		}
		g.SetOutput(p, 0, bn.Outputs[0])
		removed[bn] = true
		folded++
	}
	if folded > 0 {
		g.RemoveNodes(func(n *graph.Node) bool { return removed[n] })
	}
	return folded, nil
}

// freshValueName derives an unused value name from base.
func freshValueName(g *graph.Graph, base string) string {
	name := base
	for i := 0; ; i++ {
		if i > 0 {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		if g.Producer(name) == nil && !g.IsInitializer(name) && !g.IsGraphInput(name) && !g.IsGraphOutput(name) {
			return name
		}
	}
}

// foldBNIntoConv rewrites Conv weights W'[oc,…] = a[oc]·W[oc,…] and bias
// B'[oc] = a[oc]·B[oc] + b[oc] (adding a bias input when absent). The new
// tensors are fresh initializers — initializer storage is shared across
// graph clones and must never be mutated.
func foldBNIntoConv(g *graph.Graph, p *graph.Node, a, b []float32) bool {
	if len(p.Inputs) != 2 && len(p.Inputs) != 3 {
		return false
	}
	w := constParam(g, p.Inputs[1])
	if w == nil || w.Shape().Rank() != 4 || w.Shape()[0] != len(a) {
		return false
	}
	var bias *tensor.Tensor
	if len(p.Inputs) == 3 {
		if bias = constParam(g, p.Inputs[2]); bias == nil || bias.Numel() != len(a) {
			return false
		}
	}
	m := len(a)
	per := w.Numel() / m
	nw := w.Clone()
	nwd := nw.Data()
	for oc := 0; oc < m; oc++ {
		s := a[oc]
		row := nwd[oc*per : (oc+1)*per]
		for i := range row {
			row[i] *= s
		}
	}
	nb := make([]float32, m)
	for oc := 0; oc < m; oc++ {
		if bias != nil {
			nb[oc] = a[oc]*bias.Data()[oc] + b[oc]
		} else {
			nb[oc] = b[oc]
		}
	}
	wName := freshValueName(g, p.Inputs[1]+"_bnfold")
	bName := freshValueName(g, p.Name+"_bnfold_b")
	g.AddInitializer(wName, nw)
	g.AddInitializer(bName, tensor.FromSlice(nb))
	p.Inputs[1] = wName
	if len(p.Inputs) == 3 {
		p.Inputs[2] = bName
	} else {
		p.Inputs = append(p.Inputs, bName)
	}
	return true
}

// foldBNIntoGemm rewrites Gemm (Y = alpha·op(A)·op(B) + beta·C) so that
// BN(Y) = a⊙Y + b becomes alpha·op(A)·op(B'), with B's column j scaled by
// a[j], plus a rewritten bias C' with beta·C'[…,j] = a[j]·beta·C[…,j] +
// b[j]. A missing or beta-silenced C becomes a fresh row-vector bias.
func foldBNIntoGemm(g *graph.Graph, p *graph.Node, a, b []float32) bool {
	if len(p.Inputs) != 2 && len(p.Inputs) != 3 {
		return false
	}
	w := constParam(g, p.Inputs[1])
	if w == nil || w.Shape().Rank() != 2 {
		return false
	}
	transB := p.Attrs.Int("transB", 0) != 0
	n := w.Shape()[1]
	if transB {
		n = w.Shape()[0]
	}
	if n != len(a) {
		return false
	}
	beta := p.Attrs.Float("beta", 1)
	var c *tensor.Tensor
	if len(p.Inputs) == 3 && beta != 0 {
		if c = constParam(g, p.Inputs[2]); c == nil {
			return false
		}
		// Only the broadcast forms the kernel accepts.
		if cn := c.Numel(); cn != n && cn != 1 && c.Shape().Rank() != 2 {
			return false
		}
	}

	nw := w.Clone()
	nwd := nw.Data()
	if transB { // B is [n, k]: scale row j
		k := w.Shape()[1]
		for j := 0; j < n; j++ {
			row := nwd[j*k : (j+1)*k]
			for i := range row {
				row[i] *= a[j]
			}
		}
	} else { // B is [k, n]: scale column j
		k := w.Shape()[0]
		for i := 0; i < k; i++ {
			row := nwd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] *= a[j]
			}
		}
	}

	var nc *tensor.Tensor
	switch {
	case c == nil:
		// No live bias term: install b as a row vector with beta = 1.
		nc = tensor.FromSlice(b)
		if p.Attrs == nil {
			p.Attrs = ops.Attrs{}
		}
		p.Attrs["beta"] = 1.0
	case c.Numel() == 1:
		// Scalar bias widens to a row vector: a[j]·c + b[j]/beta.
		v := c.Data()[0]
		row := make([]float32, n)
		for j := 0; j < n; j++ {
			row[j] = a[j]*v + b[j]/float32(beta)
		}
		nc = tensor.FromSlice(row)
	case c.Numel() == n:
		row := make([]float32, n)
		for j := 0; j < n; j++ {
			row[j] = a[j]*c.Data()[j] + b[j]/float32(beta)
		}
		nc = tensor.FromSlice(row)
	default: // full [m, n] matrix
		if c.Shape().Rank() != 2 || c.Shape()[1] != n {
			return false
		}
		nc = c.Clone()
		d := nc.Data()
		rows := c.Shape()[0]
		for i := 0; i < rows; i++ {
			row := d[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] = a[j]*row[j] + b[j]/float32(beta)
			}
		}
	}

	wName := freshValueName(g, p.Inputs[1]+"_bnfold")
	cName := freshValueName(g, p.Name+"_bnfold_c")
	g.AddInitializer(wName, nw)
	g.AddInitializer(cName, nc)
	p.Inputs[1] = wName
	if len(p.Inputs) == 3 {
		p.Inputs[2] = cName
	} else {
		p.Inputs = append(p.Inputs, cName)
	}
	return true
}

// epilogueHosts are the GEMM-shaped ops whose kernels apply a writeback
// epilogue (internal/kernels.Epilogue).
var epilogueHosts = map[string]bool{"Conv": true, "Gemm": true, "MatMul": true}

// AttachEpilogues absorbs each Relu/LeakyRelu/Clip whose sole producer is
// a Conv/Gemm/MatMul into that producer as writeback-epilogue attributes,
// removing the activation node. Returns the number absorbed. It rebuilds
// the graph's index once, at the end: a host is visited once and carries
// an epilogue after, and the only stale entry, the host's old output,
// names a value only the removed activation read.
func AttachEpilogues(g *graph.Graph) (int, error) {
	count := 0
	removed := map[*graph.Node]bool{}
	for _, n := range g.Nodes {
		if removed[n] || !epilogueHosts[n.OpType] || hasFusionAttrs(n) {
			continue
		}
		c := soleConsumerEdge(g, n)
		if c == nil || removed[c] || len(c.Inputs) != 1 || len(c.Outputs) != 1 {
			continue
		}
		epi := ops.EpilogueAttrs(c.OpType, c.Attrs)
		if epi == nil {
			continue
		}
		if n.Attrs == nil {
			n.Attrs = ops.Attrs{}
		}
		for k, v := range epi {
			n.Attrs[k] = v
		}
		g.SetOutput(n, 0, c.Outputs[0])
		removed[c] = true
		count++
	}
	if count > 0 {
		g.RemoveNodes(func(n *graph.Node) bool { return removed[n] })
	}
	return count, nil
}

// stageable reports whether n can join an elementwise chain: an op the
// elementwise table marks chainable, with the table's arity and one
// output. Shape-changing ops (Reshape, Transpose, pooling, …) are not in
// the table, so a chain can never fuse across one.
func stageable(n *graph.Node) bool {
	k := ops.FusedStageInputs(n.OpType)
	return k > 0 && len(n.Inputs) == k && len(n.Outputs) == 1
}

// chainNext returns the next chain member after cur: the sole consumer of
// cur's output, itself stageable, consuming the flowing value exactly once
// (Add(v, v) squares the value and has no single-flow encoding). Also
// returns the flowing value's input position in the consumer.
func chainNext(g *graph.Graph, cur *graph.Node, taken map[*graph.Node]bool) (next *graph.Node, flowPos int, ok bool) {
	c := soleConsumerEdge(g, cur)
	if c == nil || taken[c] || !stageable(c) {
		return nil, 0, false
	}
	o := cur.Outputs[0]
	flowPos = -1
	for i, in := range c.Inputs {
		if in != o {
			continue
		}
		if flowPos >= 0 {
			return nil, 0, false // both operands are the flowing value
		}
		flowPos = i
	}
	if flowPos < 0 {
		return nil, 0, false
	}
	return c, flowPos, true
}

// FuseElementwise collapses maximal chains (length >= 2) of elementwise
// ops into single FusedElementwise nodes. Each chain is linear: every
// intermediate value has exactly one consumer (a multi-consumer
// intermediate ends the chain — the fused node still produces it) and is
// not a graph output. Binary stages keep their extra operand as an added
// node input; shape compatibility is resolved at run time by the kernel,
// which falls back to stage-wise broadcasting when an extra genuinely
// broadcasts. Returns the chain count and the total nodes collapsed.
//
// It rebuilds the graph's index once, at the end. A stale consumer entry
// names a chain member where the fused head now reads the same operand, as
// many times; both are taken, so a later chain stops at either alike.
func FuseElementwise(g *graph.Graph) (chains, nodes int, err error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, 0, err
	}
	taken := map[*graph.Node]bool{}
	removed := map[*graph.Node]bool{}
	for _, head := range order {
		if taken[head] || !stageable(head) {
			continue
		}
		chain := []*graph.Node{head}
		flow := []int{0} // flowing-value input position per node (head: input 0)
		cur := head
		for {
			next, pos, ok := chainNext(g, cur, taken)
			if !ok {
				break
			}
			chain = append(chain, next)
			flow = append(flow, pos)
			cur = next
		}
		if len(chain) < 2 {
			continue
		}
		for _, n := range chain {
			taken[n] = true
		}
		// Rebuild the head in place as the fused node.
		inputs := append([]string(nil), head.Inputs...)
		var attrs ops.Attrs
		headArg := -1
		if len(head.Inputs) == 2 {
			headArg = 1
		}
		attrs = ops.FusedStageAttrs(attrs, head.OpType, head.Attrs, headArg, false)
		for i := 1; i < len(chain); i++ {
			n := chain[i]
			arg, swap := -1, false
			if len(n.Inputs) == 2 {
				swap = flow[i] == 1
				extra := n.Inputs[1-flow[i]]
				inputs = append(inputs, extra)
				arg = len(inputs) - 1
			}
			attrs = ops.FusedStageAttrs(attrs, n.OpType, n.Attrs, arg, swap)
		}
		tail := chain[len(chain)-1]
		head.OpType = "FusedElementwise"
		head.Attrs = attrs
		head.Inputs = inputs
		g.SetOutput(head, 0, tail.Outputs[0])
		for _, n := range chain[1:] {
			removed[n] = true
		}
		chains++
		nodes += len(chain)
	}
	if chains > 0 {
		g.RemoveNodes(func(n *graph.Node) bool { return removed[n] })
	}
	return chains, nodes, nil
}
