package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	ramiel "repro"
)

// Tolerances of every output comparison: |got−want| ≤ absTol + relTol·|want|.
const (
	relTol = 1e-4
	absTol = 1e-5
)

func close32(got, want float32) bool {
	d := math.Abs(float64(got) - float64(want))
	return d <= absTol+relTol*math.Abs(float64(want))
}

// sameOutputs compares a run's outputs with the reference interpreter's
// (exec.RunSequential on the uncompiled graph) element by element.
func sameOutputs(got, want ramiel.Env) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d outputs, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || g == nil {
			return fmt.Errorf("output %q missing", name)
		}
		if !g.Shape().Equal(w.Shape()) {
			return fmt.Errorf("output %q has shape %v, want %v", name, g.Shape(), w.Shape())
		}
		if !g.AllClose(w, relTol, absTol) {
			return fmt.Errorf("output %q differs from the reference by up to %g", name, g.MaxAbsDiff(w))
		}
	}
	return nil
}

// digest is what a golden file keeps of one output tensor: enough to catch
// a wrong answer without committing megabytes.
type digest struct {
	Name  string    `json:"name"`
	Numel int       `json:"numel"`
	Head  []float32 `json:"head"` // first 8 values
	L2    float64   `json:"l2"`
}

// golden is the committed expected output of a workload's first input at
// -seed 1, written once from the reference interpreter (-update-golden).
// It pins the reference itself: if interpreter and compiler drift together,
// only this file notices.
type golden struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Outputs  []digest `json:"outputs"`
}

//go:embed testdata/golden_*.json
var goldenFS embed.FS

func digestOf(outs ramiel.Env) []digest {
	names := make([]string, 0, len(outs))
	for n := range outs {
		names = append(names, n)
	}
	sort.Strings(names)
	ds := make([]digest, 0, len(names))
	for _, n := range names {
		d := outs[n].Data()
		var sq float64
		for _, v := range d {
			sq += float64(v) * float64(v)
		}
		head := d
		if len(head) > 8 {
			head = head[:8]
		}
		ds = append(ds, digest{Name: n, Numel: len(d), Head: append([]float32(nil), head...), L2: math.Sqrt(sq)})
	}
	return ds
}

func goldenPath(workload string) string {
	return "testdata/golden_" + workload + ".json"
}

// checkGolden compares outs with the committed digest of the workload.
func checkGolden(workload string, outs ramiel.Env) error {
	data, err := goldenFS.ReadFile(goldenPath(workload))
	if err != nil {
		return fmt.Errorf("golden file: %w", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden file %s: %w", goldenPath(workload), err)
	}
	got := digestOf(outs)
	if len(got) != len(want.Outputs) {
		return fmt.Errorf("golden: got %d outputs, want %d", len(got), len(want.Outputs))
	}
	for i, w := range want.Outputs {
		g := got[i]
		if g.Name != w.Name || g.Numel != w.Numel {
			return fmt.Errorf("golden: output %d is %s[%d], want %s[%d]", i, g.Name, g.Numel, w.Name, w.Numel)
		}
		for j := range w.Head {
			if !close32(g.Head[j], w.Head[j]) {
				return fmt.Errorf("golden: %s[%d] = %g, want %g", w.Name, j, g.Head[j], w.Head[j])
			}
		}
		if math.Abs(g.L2-w.L2) > absTol+relTol*w.L2 {
			return fmt.Errorf("golden: %s L2 norm = %g, want %g", w.Name, g.L2, w.L2)
		}
	}
	return nil
}

// writeGolden rewrites the workload's golden file under dir (the package
// directory) from reference outputs.
func writeGolden(dir, workload string, seed uint64, ref ramiel.Env) error {
	data, err := json.MarshalIndent(golden{Workload: workload, Seed: seed, Outputs: digestOf(ref)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenPath(workload)), append(data, '\n'), 0o644)
}
