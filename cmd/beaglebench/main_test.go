package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// registered is what the registry must be: the paper reproduction on the
// calibrated models and nothing else. Wall-clock experiments belong to
// bench/mark; adding one here brings back a second measured harness.
var registered = []string{"fig4", "fig4smoke", "fig5", "fig6", "table3", "table3hybrid", "table4", "table5"}

func TestRegistryIsThePaperReproduction(t *testing.T) {
	if got := experimentNames(); strings.Join(got, ",") != strings.Join(registered, ",") {
		t.Errorf("registry = %v, want %v", got, registered)
	}

	// "all" is the registry without the CI-sized fig4smoke.
	all := append([]string{"fig4smoke"}, allOrder...)
	sort.Strings(all)
	if strings.Join(all, ",") != strings.Join(registered, ",") {
		t.Errorf("all runs %v, want the registry without fig4smoke", allOrder)
	}

	// The -experiment flag help lists exactly the registry.
	if help := experimentUsage(); help != strings.Join(registered, ", ")+", or all" {
		t.Errorf("-experiment help = %q, want the registry then \", or all\"", help)
	}
}

// TestNothingDangling checks, offline, what only a CI run would otherwise
// show: every experiment a script, workflow or documented command names has a
// runner, every committed baseline has one, and nothing refers to a script or
// report this repository no longer has.
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

	known := func(name string) bool { _, ok := runners[name]; return ok }
	// `-experiment a|b|all` and `bench_gate.sh a` name experiments;
	// BENCH_<x>.json names a report; scripts/<x>.sh names a script.
	experimentArg := regexp.MustCompile(`(?:-experiment|bench_gate\.sh)[ \t]+([A-Za-z0-9_|]+)`)
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

	baselines, err := os.ReadDir(filepath.Join(root, "bench", "baselines"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range baselines {
		name, ok := strings.CutPrefix(e.Name(), "BENCH_")
		name, ok2 := strings.CutSuffix(name, ".json")
		if !ok || !ok2 || !known(name) {
			t.Errorf("bench/baselines/%s is not BENCH_<registered experiment>.json", e.Name())
		}
	}
}
