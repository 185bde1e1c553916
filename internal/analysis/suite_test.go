package analysis_test

import (
	"os"
	"slices"
	"testing"

	"gobeagle/internal/analysis"
	"gobeagle/internal/analysis/analysistest"
)

// TestAnalyzers runs each analyzer over its fixture package under
// testdata/src/<name>, which seeds every violation class the analyzer must
// catch alongside the clean patterns it must accept; the // want comments in
// the fixtures are the expected-diagnostic oracle.
func TestAnalyzers(t *testing.T) {
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, a, "testdata/src/"+a.Name)
		})
	}
}

// TestFixtureInventory holds the fixture directories to the suite: every
// analyzer in analysis.All() has a testdata/src directory of its name and
// every directory belongs to one, so an orphaned fixture or an analyzer
// without one fails here.
func TestFixtureInventory(t *testing.T) {
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var dirs, names []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	slices.Sort(names)
	if !slices.Equal(dirs, names) {
		t.Fatalf("fixture directories %v, analyzers %v", dirs, names)
	}
}
