// Codegen: the paper's headline deliverable — readable, executable parallel
// code generated from the clustered dataflow graph (Section IV, Algorithm
// 4, Fig. 11). This example clusters GoogleNet and writes a runnable Go
// program where each cluster is one function and cross-cluster tensor
// dependences are explicit queue Send/Recv calls.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	ramiel "repro"
)

func main() {
	g, err := ramiel.BuildModel("googlenet", ramiel.ModelConfig{ImageSize: 32})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	src, err := prog.GenerateGo(ramiel.CodegenOptions{EmitMain: true})
	if err != nil {
		log.Fatal(err)
	}

	// The generated file is package main, so it gets a directory of its own:
	// written next to other Go files it would break their package.
	out := filepath.Join("googlenet_parallel", "main.go")
	if len(os.Args) > 1 {
		out = os.Args[1]
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, []byte(src), 0o644); err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(src, "\n")
	fmt.Printf("generated %d lines of parallel Go for %d clusters → %s\n",
		len(lines), prog.NumClusters(), out)
	fmt.Printf("messaging: %d Sends, %d Recvs\n",
		strings.Count(src, "q.Send("), strings.Count(src, "q.Recv("))

	// Show the flavor of the generated code: the first messaging cluster.
	fmt.Println("\n--- snippet (first cluster exchanging messages) ---")
	printed := 0
	inFunc := false
	for _, line := range lines {
		if strings.HasPrefix(line, "func cluster1(") {
			inFunc = true
		}
		if inFunc {
			fmt.Println(line)
			printed++
			if printed > 18 || strings.HasPrefix(line, "}") && printed > 1 {
				break
			}
		}
	}
	fmt.Println("...")
	fmt.Println("\nrun it from the module root with: go run ./" + filepath.ToSlash(filepath.Dir(out)))
}
