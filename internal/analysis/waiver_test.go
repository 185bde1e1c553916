package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gobeagle/internal/analysis"
)

// TestWaiverRequiresReason pins the waiver grammar across every analyzer
// that supports //beagle:allow: a waiver with no reason must itself be
// reported, for each check name, so an unexplained suppression can never
// slip into the tree.
func TestWaiverRequiresReason(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		check    string // the waiver's check name
		src      string // minimal package with one waived-without-reason site
	}{
		{
			analyzer: analysis.NoPanic,
			check:    "panic",
			src: `package p

func Exported() {
	//beagle:allow panic
	panic("x")
}
`,
		},
		{
			analyzer: analysis.NoAlloc,
			check:    "noalloc",
			src: `package p

//beagle:noalloc
func F(n int) bool {
	//beagle:allow noalloc
	_, ok := any(n).(int)
	return ok
}
`,
		},
		{
			analyzer: analysis.LockOrder,
			check:    "lockorder",
			src: `package p

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func F(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	//beagle:allow lockorder
	b.mu.Lock()
	b.mu.Unlock()
}

func G(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	//beagle:allow lockorder opposite order is boot-only
	a.mu.Lock()
	a.mu.Unlock()
}
`,
		},
		{
			analyzer: analysis.GoroLeak,
			check:    "goroleak",
			src: `package p

func work() {}

func Fire() {
	//beagle:allow goroleak
	go work()
}
`,
		},
		{
			analyzer: analysis.MapDeterminism,
			check:    "maprange",
			src: `package p

func F(m map[string]int) []int {
	var out []int
	for _, v := range m {
		//beagle:allow maprange
		out = append(out, v)
	}
	return out
}
`,
		},
		{
			analyzer: analysis.CtxHTTP,
			check:    "ctxhttp",
			src: `package p

type ResponseWriter interface {
	Write([]byte) (int, error)
	WriteHeader(statusCode int)
}

type Request struct{}

func H(w ResponseWriter, r *Request) {
	w.WriteHeader(200)
	//beagle:allow ctxhttp
	w.WriteHeader(200)
}
`,
		},
	}

	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			pkg, err := analysis.LoadDir(dir)
			if err != nil {
				t.Fatalf("loading synthetic package: %v", err)
			}
			diags, err := analysis.Run(tc.analyzer, pkg)
			if err != nil {
				t.Fatalf("running %s: %v", tc.analyzer.Name, err)
			}
			want := analysis.AllowDirective + " " + tc.check + " waiver needs a reason"
			found := false
			for _, d := range diags {
				if strings.Contains(d.Message, want) {
					found = true
				}
				if strings.Contains(d.Message, "waiver needs a reason") && !strings.Contains(d.Message, tc.check) {
					t.Errorf("diagnostic names the wrong check: %s", d.Message)
				}
			}
			if !found {
				t.Errorf("%s: reasonless //beagle:allow %s was not reported; diagnostics: %v",
					tc.analyzer.Name, tc.check, diags)
			}
		})
	}
}
