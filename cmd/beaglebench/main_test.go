package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"gobeagle/internal/benchmarks"
)

// registered is what the registry must be: the paper reproduction on the
// calibrated models and nothing else. Wall-clock experiments belong to
// bench/mark; adding one here brings back a second measured harness.
var registered = []string{"fig4", "fig4smoke", "fig5", "fig6", "table3", "table3hybrid", "table4", "table5"}

func TestRegistryIsThePaperReproduction(t *testing.T) {
	if got := benchmarks.ExperimentNames(); strings.Join(got, ",") != strings.Join(registered, ",") {
		t.Errorf("registry = %v, want %v", got, registered)
	}

	// "all" is the registry without the CI-sized fig4smoke.
	all := append([]string{"fig4smoke"}, benchmarks.AllOrder...)
	sort.Strings(all)
	if strings.Join(all, ",") != strings.Join(registered, ",") {
		t.Errorf("all runs %v, want the registry without fig4smoke", benchmarks.AllOrder)
	}

	// The -experiment flag help lists exactly the registry.
	if help := experimentUsage(); help != strings.Join(registered, ", ")+", or all" {
		t.Errorf("-experiment help = %q, want the registry then \", or all\"", help)
	}
}

// TestNothingDangling checks, offline, what only a CI run would otherwise
// show: every experiment a script, workflow or documented command names has a
// runner, and nothing refers to a script or report this repository no longer
// has.
func TestNothingDangling(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	files = append(files,
		filepath.Join(root, ".github", "workflows", "ci.yml"),
		filepath.Join(root, "README.md"),
		filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"))

	known := func(name string) bool { _, ok := benchmarks.Experiments[name]; return ok }
	// `-experiment a|b|all` names experiments; BENCH_<x>.json names a
	// report; scripts/<x>.sh names a script.
	experimentArg := regexp.MustCompile(`-experiment[ \t]+([A-Za-z0-9_|]+)`)
	report := regexp.MustCompile(`BENCH_([A-Za-z0-9]+)\.json`)
	script := regexp.MustCompile(`scripts/([A-Za-z0-9_]+\.sh)`)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range experimentArg.FindAllStringSubmatch(text, -1) {
			for _, name := range strings.Split(m[1], "|") {
				if name != "all" && !known(name) {
					t.Errorf("%s: %q names experiment %q, which has no runner", file, m[0], name)
				}
			}
		}
		for _, m := range report.FindAllStringSubmatch(text, -1) {
			if !known(m[1]) {
				t.Errorf("%s: %s is not a report any experiment writes", file, m[0])
			}
		}
		for _, m := range script.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(filepath.Join(root, "scripts", m[1])); err != nil {
				t.Errorf("%s: refers to %s, which does not exist", file, m[0])
			}
		}
		// Spelled in two halves so that a grep for the deleted variable over
		// the tree finds nothing, this file included.
		if gone := "BENCH_GATE" + "_JSON"; strings.Contains(text, gone) {
			t.Errorf("%s: %s is no longer read by anything", file, gone)
		}
	}
}

// TestEveryCommandIsChecked holds cmd/ to what checks it: the README tool
// table lists exactly the commands there, and each is run by a CI step or a
// check script or has tests of its own. No script, workflow or doc names the
// deleted examples/ tree.
func TestEveryCommandIsChecked(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(rel string) string {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	var commands []string
	for _, e := range entries {
		if e.IsDir() {
			commands = append(commands, e.Name())
		}
	}

	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `cmd/([A-Za-z0-9_]+)`").FindAllStringSubmatch(read("README.md"), -1) {
		listed = append(listed, m[1])
	}
	sort.Strings(listed)
	if strings.Join(listed, ",") != strings.Join(commands, ",") {
		t.Errorf("README tool table lists %v, cmd/ has %v", listed, commands)
	}

	runners := read(".github/workflows/ci.yml") + read("scripts/run_checks.sh")
	for _, c := range commands {
		tests, err := filepath.Glob(filepath.Join(root, "cmd", c, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 && !strings.Contains(runners, "cmd/"+c) {
			t.Errorf("cmd/%s has no test, and no CI step or check script runs it", c)
		}
	}

	docs := []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scripts {
		docs = append(docs, "scripts/"+filepath.Base(s))
	}
	for _, doc := range docs {
		if strings.Contains(read(doc), "examples/") {
			t.Errorf("%s names examples/, which no longer exists", doc)
		}
	}
}
