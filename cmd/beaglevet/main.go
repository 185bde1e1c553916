// Command beaglevet is the library's static-analysis multichecker: it runs
// the stock `go vet` suite followed by the repo-specific analyzers in
// internal/analysis (noalloc, nopanic, allocguard, lockorder, goroleak,
// mapdeterminism, ctxhttp) over the module. scripts/run_checks.sh and the CI
// beaglevet job gate every change on a clean run:
//
//	go run ./cmd/beaglevet ./...
//
// Flags:
//
//	-stock=false   skip the go vet pass (custom analyzers only)
//	-list          print the custom analyzers and exit
//	-json          emit diagnostics as a JSON array (machine-readable; CI
//	               uploads it as an artifact)
//	-C dir         analyze the module rooted at dir (default: the module
//	               containing the working directory)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"gobeagle/internal/analysis"
)

// jsonDiag is one diagnostic in -json output. The array is sorted the same
// way the text output is, so successive runs diff cleanly.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("beaglevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stock := fs.Bool("stock", true, "also run the stock `go vet` analyzers")
	list := fs.Bool("list", false, "list the custom analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	dir := fs.String("C", "", "module directory to analyze (default: module of the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	moduleDir := *dir
	if moduleDir == "" {
		var err error
		moduleDir, err = findModuleDir()
		if err != nil {
			fmt.Fprintln(stderr, "beaglevet:", err)
			return 2
		}
	}

	failed := false
	if *stock {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Dir = moduleDir
		// With -json, stdout must stay a single well-formed JSON document,
		// so the stock pass reports on stderr only.
		if *jsonOut {
			vet.Stdout = stderr
		} else {
			vet.Stdout = stdout
		}
		vet.Stderr = stderr
		if err := vet.Run(); err != nil {
			failed = true
		}
	}

	pkgs, err := analysis.Load(moduleDir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "beaglevet:", err)
		return 2
	}
	// cmd/beaglevet and the analysis layer are tooling, not the library's
	// hot path; they are still analyzed like everything else.
	var found []jsonDiag
	for _, pkg := range pkgs {
		for _, a := range analysis.All() {
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fmt.Fprintln(stderr, "beaglevet:", err)
				return 2
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				name := pos.Filename
				if r, err := filepath.Rel(moduleDir, name); err == nil && !strings.HasPrefix(r, "..") {
					name = r
				}
				found = append(found, jsonDiag{
					File: name, Line: pos.Line, Column: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if *jsonOut {
		if found == nil {
			found = []jsonDiag{} // render `[]`, not `null`
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(found); err != nil {
			fmt.Fprintln(stderr, "beaglevet:", err)
			return 2
		}
	} else {
		for _, d := range found {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Column, d.Analyzer, d.Message)
		}
	}
	if len(found) > 0 || failed {
		return 1
	}
	return 0
}

// findModuleDir locates the root of the module containing the working
// directory via `go env GOMOD`.
func findModuleDir() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := string(bytes.TrimSpace(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
