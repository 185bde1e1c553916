package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// AllocGuard closes the loop between the static //beagle:noalloc contract
// and the runtime: every exported annotated function must also have a
// testing.AllocsPerRun guard somewhere in its package's tests. The static
// analyzer proves the absence of allocating *syntax*; the runtime guard
// catches what escape analysis decides behind the syntax (a captured slice
// header spilling to the heap, a devirtualization regression). Before this
// analyzer the recorder's disabled-overhead test was the only such defense, and
// nothing noticed when a kernel silently lost its guard.
//
// Unexported annotated helpers (kernel fma, the recorder's aggregate method)
// are exempt: they are only reachable through annotated exported functions,
// whose guards cover them.
var AllocGuard = &Analyzer{
	Name: "allocguard",
	Doc:  "every exported //beagle:noalloc function needs a testing.AllocsPerRun guard",
	Run:  runAllocGuard,
}

func runAllocGuard(pass *Pass) error {
	type target struct {
		name string
		pos  token.Pos
	}
	var targets []target
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, NoAllocDirective) || !fd.Name.IsExported() {
				continue
			}
			targets = append(targets, target{name: fd.Name.Name, pos: fd.Name.Pos()})
		}
	}
	if len(targets) == 0 {
		return nil
	}

	guarded, err := allocsPerRunReferences(pass.Dir)
	if err != nil {
		return err
	}
	for _, t := range targets {
		if !guarded[t.name] {
			pass.Reportf(t.pos, "%s is //beagle:noalloc but no testing.AllocsPerRun guard in this package's tests references it", t.name)
		}
	}
	return nil
}

// allocsPerRunReferences parses the package directory's _test.go files and
// returns the set of function/method names referenced inside the body of
// any closure passed to testing.AllocsPerRun.
func allocsPerRunReferences(dir string) (map[string]bool, error) {
	refs := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || calleeName(call) != "AllocsPerRun" || len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.Ident:
					refs[m.Name] = true
				case *ast.SelectorExpr:
					refs[m.Sel.Name] = true
				}
				return true
			})
			return true
		})
	}
	return refs, nil
}

// calleeName returns the bare name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
