// Package analysis is the library's static-analysis layer: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver model, plus the repo-specific analyzers that turn the paper's
// hot-path, concurrency and serving contracts into compile-time checks.
//
// Each analyzer guards a contract no type, test or race run carries as
// well: the pruning kernels and the recorder's disabled path must not
// allocate (noalloc, with allocguard requiring a testing.AllocsPerRun guard
// beside every exported //beagle:noalloc function); exported entry points
// return errors instead of panicking (nopanic); locks are taken in one
// global order (lockorder); map iteration never feeds order-sensitive state
// (mapdeterminism); every spawned goroutine is joined (goroleak); and HTTP
// handlers write their status once and never panic (ctxhttp).
// cmd/beaglevet is the multichecker driver, and scripts/run_checks.sh plus
// CI run it on every change.
//
// The framework mirrors the x/tools API shape (Analyzer, Pass, Diagnostic)
// so analyzers read idiomatically and could migrate to the upstream driver
// verbatim, but it is built only on the standard library's go/ast, go/types
// and go/importer, because this module deliberately carries no external
// dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. It is run once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test output.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with everything it may inspect about a
// single type-checked package, and collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package directory on disk. Analyzers that need artifacts
	// outside the compiled package (e.g. allocguard reading _test.go files)
	// resolve them against it.
	Dir string

	diagnostics []Diagnostic
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run applies one analyzer to one loaded package and returns its findings.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Dir:       pkg.Dir,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	return pass.diagnostics, nil
}

// All returns the repo-specific analyzer suite in presentation order: the
// intraprocedural hot-path contracts first, then the interprocedural
// concurrency, determinism and lifecycle analyzers built on the shared call
// graph (see callgraph.go).
func All() []*Analyzer {
	return []*Analyzer{
		NoAlloc,
		NoPanic,
		AllocGuard,
		LockOrder,
		GoroLeak,
		MapDeterminism,
		CtxHTTP,
	}
}

// Annotation directives. They live in doc comments (for function contracts)
// or on the offending line (for waivers), in the style of go:build
// directives: no space after the slashes.
const (
	// NoAllocDirective marks a function whose body must contain no
	// allocating constructs; see the noalloc analyzer.
	NoAllocDirective = "//beagle:noalloc"
	// AllowDirective waives a check at one site: "//beagle:allow <check>
	// <reason>". The reason is mandatory; an unexplained waiver is itself a
	// diagnostic.
	AllowDirective = "//beagle:allow"
)

// hasDirective reports whether a comment group contains the given directive
// as a full word on any line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// allowance describes one //beagle:allow waiver found in a file.
type allowance struct {
	check  string // the waived check, e.g. "panic"
	reason string // free text after the check name
	line   int    // line the waiver applies to
}

// fileAllowances collects every //beagle:allow waiver in a file, keyed by the
// line it covers: the waiver's own line, so it applies both to trailing
// comments on the offending line and to a comment on the line directly
// above (callers should check both).
func fileAllowances(fset *token.FileSet, f *ast.File) []allowance {
	var out []allowance
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, AllowDirective) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, AllowDirective)
			fields := strings.Fields(rest)
			a := allowance{line: fset.Position(c.Pos()).Line}
			if len(fields) > 0 {
				a.check = fields[0]
				a.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			}
			out = append(out, a)
		}
	}
	return out
}

// allowedAt reports whether a waiver for check covers the given line (same
// line or the line directly above), and whether that waiver carries a
// reason.
func allowedAt(allows []allowance, check string, line int) (waived, hasReason bool) {
	for _, a := range allows {
		if a.check == check && (a.line == line || a.line == line-1) {
			return true, a.reason != ""
		}
	}
	return false, false
}

// isTypeParam reports whether t is a type parameter. Conversions to type
// parameters look like interface conversions to the type checker (the
// constraint is an interface) but instantiate to concrete types, so
// interface-boxing checks must skip them.
func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

// isInterface reports whether t is a genuine (non-type-parameter) interface
// type.
func isInterface(t types.Type) bool {
	if t == nil || isTypeParam(t) {
		return false
	}
	return types.IsInterface(t)
}

// funcDeclFor returns the *types.Func object a call expression statically
// resolves to, or nil for dynamic calls, builtins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
