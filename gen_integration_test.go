package ramiel_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	ramiel "repro"
)

// TestGeneratedCodeCompilesAndRuns is the end-to-end check of the paper's
// headline deliverable: the generated parallel program must be real,
// compilable, runnable code — not pseudo-output. It generates the parallel
// Go for three models, builds them with the actual Go toolchain, executes
// them, and requires each program's own parallel-vs-sequential
// verification to pass. yolo_v5 is the fusion coverage: its compile folds
// BatchNorms into fresh weight initializers and emits FusedElementwise
// nodes, so the generated main must reproduce the *optimized* environment
// (ramiel.CompiledEnv) — the base model's initializers would not resolve.
// Pruned bert carries MatMuls with an absorbed bias input and operand and
// output views.
func TestGeneratedCodeCompilesAndRuns(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	for i, model := range []string{"squeezenet", "yolo_v5", "bert"} {
		g, err := ramiel.BuildModel(model, ramiel.ModelConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var opts []ramiel.CompileOption
		if model == "bert" {
			opts = append(opts, ramiel.WithPrune())
		}
		prog, err := ramiel.Compile(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		src, err := prog.GenerateGo(ramiel.CodegenOptions{EmitMain: true})
		if err != nil {
			t.Fatal(err)
		}

		// The generated file imports "repro", so it must live inside this
		// module; an underscore-prefixed directory keeps it out of ./...
		dir := filepath.Join(".", fmt.Sprintf("_gentest%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}

		cmd := exec.Command("go", "run", "./"+dir)
		cmd.Dir = "."
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: generated program failed: %v\n%s", model, err, out)
		}
		if !strings.Contains(string(out), "outputs verified") {
			t.Fatalf("%s: generated program did not verify outputs:\n%s", model, out)
		}
		t.Logf("%s generated program output: %s", model, strings.TrimSpace(string(out)))
	}
}
