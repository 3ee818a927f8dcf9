// Package graph defines the in-memory dataflow-graph representation that
// every Ramiel compiler pass operates on: operator nodes connected by named
// tensor values, in the style of an ONNX GraphProto. Edges are implicit —
// node A feeds node B when one of A's output value names appears among B's
// inputs — which makes the graph cheap to mutate during passes; an index of
// producers and consumers is rebuilt on demand.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// ValueInfo names a graph-level input or output and its (optional) shape.
type ValueInfo struct {
	Name  string
	Shape tensor.Shape
}

// Node is one operator instance in the dataflow graph.
type Node struct {
	// ID is a dense index assigned by the owning Graph; it is stable until
	// the next structural mutation that calls Reindex.
	ID int
	// Name uniquely identifies the node within its graph.
	Name string
	// OpType is the ONNX-style operator name ("Conv", "Relu", …).
	OpType string
	// Attrs holds the operator attributes.
	Attrs ops.Attrs
	// Inputs and Outputs are tensor value names in positional order.
	Inputs  []string
	Outputs []string
}

// Clone returns a deep copy of the node (attribute values are shared, as
// they are treated as immutable).
func (n *Node) Clone() *Node {
	return &Node{
		ID:      n.ID,
		Name:    n.Name,
		OpType:  n.OpType,
		Attrs:   n.Attrs.Clone(),
		Inputs:  append([]string(nil), n.Inputs...),
		Outputs: append([]string(nil), n.Outputs...),
	}
}

func (n *Node) String() string {
	return fmt.Sprintf("%s(%s)", n.Name, n.OpType)
}

// Graph is a dataflow graph: a set of operator nodes plus graph-level
// inputs, outputs and constant initializers (weights).
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []ValueInfo
	Outputs []ValueInfo
	// Initializers maps value names to constant tensors (model weights and
	// any other baked-in constants).
	Initializers map[string]*tensor.Tensor

	// Derived indexes; nil until built, invalidated by mutation.
	producerIdx  map[string]*Node
	consumersIdx map[string][]*Node
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, Initializers: map[string]*tensor.Tensor{}}
}

// AddNode appends a node built from the arguments and returns it.
func (g *Graph) AddNode(name, opType string, inputs, outputs []string, attrs ops.Attrs) *Node {
	n := &Node{
		ID:      len(g.Nodes),
		Name:    name,
		OpType:  opType,
		Attrs:   attrs,
		Inputs:  append([]string(nil), inputs...),
		Outputs: append([]string(nil), outputs...),
	}
	g.Nodes = append(g.Nodes, n)
	g.Invalidate()
	return n
}

// AddInitializer registers a constant tensor under the given value name.
func (g *Graph) AddInitializer(name string, t *tensor.Tensor) {
	if g.Initializers == nil {
		g.Initializers = map[string]*tensor.Tensor{}
	}
	g.Initializers[name] = t
}

// Invalidate drops the derived producer/consumer indexes; any pass that
// mutates Nodes, Inputs/Outputs slices of nodes, or Initializers must call
// it (AddNode and RemoveNodes do so automatically).
func (g *Graph) Invalidate() {
	g.producerIdx = nil
	g.consumersIdx = nil
}

// SetOutput makes n produce value as its i-th output and moves the
// producer index entry of the value it replaces, when the index is built,
// so a pass that re-points outputs can go on asking Producer without a
// rebuild. Consumer entries stay as they are: the old value's still list
// the nodes that read it.
func (g *Graph) SetOutput(n *Node, i int, value string) {
	if g.producerIdx != nil {
		delete(g.producerIdx, n.Outputs[i])
		g.producerIdx[value] = n
	}
	n.Outputs[i] = value
}

// Reindex assigns dense IDs in current slice order and rebuilds the
// producer/consumer indexes.
func (g *Graph) Reindex() {
	for i, n := range g.Nodes {
		n.ID = i
	}
	g.buildIndex()
}

func (g *Graph) buildIndex() {
	g.producerIdx = make(map[string]*Node, len(g.Nodes))
	g.consumersIdx = make(map[string][]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			g.producerIdx[out] = n
		}
		for _, in := range n.Inputs {
			g.consumersIdx[in] = append(g.consumersIdx[in], n)
		}
	}
}

func (g *Graph) ensureIndex() {
	if g.producerIdx == nil {
		g.buildIndex()
	}
}

// Producer returns the node producing the value name, or nil when the value
// is a graph input or initializer.
func (g *Graph) Producer(value string) *Node {
	g.ensureIndex()
	return g.producerIdx[value]
}

// Consumers returns the nodes consuming the value name.
func (g *Graph) Consumers(value string) []*Node {
	g.ensureIndex()
	return g.consumersIdx[value]
}

// Predecessors returns the distinct nodes whose outputs n consumes, in
// first-use order.
func (g *Graph) Predecessors(n *Node) []*Node {
	g.ensureIndex()
	var out []*Node
	seen := map[*Node]bool{}
	for _, in := range n.Inputs {
		if p := g.producerIdx[in]; p != nil && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Successors returns the distinct nodes consuming any of n's outputs, in
// first-use order.
func (g *Graph) Successors(n *Node) []*Node {
	g.ensureIndex()
	var out []*Node
	seen := map[*Node]bool{}
	for _, o := range n.Outputs {
		for _, c := range g.consumersIdx[o] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// InDegree returns the number of distinct predecessor nodes.
func (g *Graph) InDegree(n *Node) int { return len(g.Predecessors(n)) }

// OutDegree returns the number of distinct successor nodes.
func (g *Graph) OutDegree(n *Node) int { return len(g.Successors(n)) }

// NodeByName returns the node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// RemoveNodes deletes every node for which remove returns true and
// reindexes the graph. Initializers and graph inputs/outputs are untouched.
func (g *Graph) RemoveNodes(remove func(*Node) bool) int {
	kept := g.Nodes[:0]
	removed := 0
	for _, n := range g.Nodes {
		if remove(n) {
			removed++
		} else {
			kept = append(kept, n)
		}
	}
	g.Nodes = kept
	g.Invalidate()
	g.Reindex()
	return removed
}

// Clone returns a deep copy of the graph (initializer tensors are shared,
// as they are read-only at execution time).
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	c.Inputs = append([]ValueInfo(nil), g.Inputs...)
	c.Outputs = append([]ValueInfo(nil), g.Outputs...)
	for name, t := range g.Initializers {
		c.Initializers[name] = t
	}
	c.Nodes = make([]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		c.Nodes[i] = n.Clone()
	}
	c.Reindex()
	return c
}

// IsGraphInput reports whether the value name is a declared graph input.
func (g *Graph) IsGraphInput(value string) bool {
	for _, in := range g.Inputs {
		if in.Name == value {
			return true
		}
	}
	return false
}

// IsGraphOutput reports whether the value name is a declared graph output.
func (g *Graph) IsGraphOutput(value string) bool {
	for _, out := range g.Outputs {
		if out.Name == value {
			return true
		}
	}
	return false
}

// IsInitializer reports whether the value name is bound to a constant.
func (g *Graph) IsInitializer(value string) bool {
	_, ok := g.Initializers[value]
	return ok
}

// Validate checks structural well-formedness: unique node and value names,
// every consumed value has a source (producer, graph input or initializer),
// every graph output is produced, and the graph is acyclic.
func (g *Graph) Validate() error {
	names := map[string]bool{}
	produced := map[string]string{}
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("graph %s: node with empty name (op %s)", g.Name, n.OpType)
		}
		if names[n.Name] {
			return fmt.Errorf("graph %s: duplicate node name %q", g.Name, n.Name)
		}
		names[n.Name] = true
		if n.OpType == "" {
			return fmt.Errorf("graph %s: node %s has empty op type", g.Name, n.Name)
		}
		for _, out := range n.Outputs {
			if prev, dup := produced[out]; dup {
				return fmt.Errorf("graph %s: value %q produced by both %s and %s", g.Name, out, prev, n.Name)
			}
			produced[out] = n.Name
			if g.IsInitializer(out) {
				return fmt.Errorf("graph %s: node %s writes initializer %q", g.Name, n.Name, out)
			}
			if g.IsGraphInput(out) {
				return fmt.Errorf("graph %s: node %s writes graph input %q", g.Name, n.Name, out)
			}
		}
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if _, ok := produced[in]; ok {
				continue
			}
			if g.IsGraphInput(in) || g.IsInitializer(in) {
				continue
			}
			return fmt.Errorf("graph %s: node %s consumes undefined value %q", g.Name, n.Name, in)
		}
	}
	for _, out := range g.Outputs {
		if _, ok := produced[out.Name]; !ok && !g.IsGraphInput(out.Name) && !g.IsInitializer(out.Name) {
			return fmt.Errorf("graph %s: output %q is never produced", g.Name, out.Name)
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// ValueNames returns every value name appearing in the graph, sorted.
func (g *Graph) ValueNames() []string {
	set := map[string]bool{}
	for _, n := range g.Nodes {
		for _, v := range n.Inputs {
			set[v] = true
		}
		for _, v := range n.Outputs {
			set[v] = true
		}
	}
	for _, in := range g.Inputs {
		set[in.Name] = true
	}
	for _, out := range g.Outputs {
		set[out.Name] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the graph for reports.
type Stats struct {
	Nodes    int
	Edges    int
	OpCounts map[string]int
}

// Stats computes node/edge counts and the per-op-type histogram. Edges are
// counted at node granularity (distinct producer→consumer pairs).
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), OpCounts: map[string]int{}}
	for _, n := range g.Nodes {
		s.OpCounts[n.OpType]++
		s.Edges += len(g.Predecessors(n))
	}
	return s
}
