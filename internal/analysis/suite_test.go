package analysis_test

import (
	"os"
	"slices"
	"testing"

	"gobeagle/internal/analysis"
	"gobeagle/internal/analysis/analysistest"
)

// Each analyzer runs over its fixture package under testdata/src/<name>,
// which seeds every violation class the analyzer must catch alongside the
// clean patterns it must accept; the // want comments in the fixtures are
// the expected-diagnostic oracle.
func runFixture(t *testing.T, a *analysis.Analyzer) {
	analysistest.Run(t, a, "testdata/src/"+a.Name)
}

func TestNoAlloc(t *testing.T)        { runFixture(t, analysis.NoAlloc) }
func TestNoPanic(t *testing.T)        { runFixture(t, analysis.NoPanic) }
func TestAllocGuard(t *testing.T)     { runFixture(t, analysis.AllocGuard) }
func TestLockOrder(t *testing.T)      { runFixture(t, analysis.LockOrder) }
func TestGoroLeak(t *testing.T)       { runFixture(t, analysis.GoroLeak) }
func TestMapDeterminism(t *testing.T) { runFixture(t, analysis.MapDeterminism) }
func TestCtxHTTP(t *testing.T)        { runFixture(t, analysis.CtxHTTP) }

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
