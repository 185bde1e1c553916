package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// AtomicMix flags variables and struct fields that are accessed both through
// sync/atomic and through plain loads or stores. The recorder (spans and
// aggregates) and the reuse layer both keep "disabled path is one atomic
// load" fast paths; a plain read slipped in next to the atomic ones is a data
// race the race detector only catches if a test happens to hit the
// interleaving, and on weakly-ordered hardware it can observe torn or stale
// values. The fix is to access such fields through sync/atomic everywhere
// (or migrate to the typed atomic.Int64 and friends, which make mixing
// impossible).
//
// The analyzer collects every address handed to a sync/atomic function
// (atomic.AddInt64(&x.f, 1) marks x.f) and then reports each remaining plain
// use of the same variable. Struct-literal keys are not uses of the value
// and initialization before publication is the one legitimate plain write,
// so composite-literal keys are skipped. A site can be waived with
// //beagle:allow atomicmix <reason> (e.g. "read under mu, writers hold mu").
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "no mixing of sync/atomic and plain access on the same variable",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	info := pass.TypesInfo

	// terminalVar resolves an expression like x.f, (&x).f or f to the
	// declared variable or field it names.
	terminalVar := func(e ast.Expr) *types.Var {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[e].(*types.Var)
			return v
		case *ast.SelectorExpr:
			v, _ := info.Uses[e.Sel].(*types.Var)
			return v
		}
		return nil
	}

	// Pass 1: addresses taken for sync/atomic calls. atomicIdents records
	// the identifier nodes inside those arguments so pass 2 does not count
	// them as plain uses.
	atomicVars := map[*types.Var]bool{}
	atomicIdents := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[pkgID].(*types.PkgName)
			if !ok || pn.Imported().Path() != "sync/atomic" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op.String() != "&" {
				return true
			}
			if v := terminalVar(addr.X); v != nil {
				atomicVars[v] = true
				ast.Inspect(call.Args[0], func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						atomicIdents[id] = true
					}
					return true
				})
			}
			return true
		})
	}
	if len(atomicVars) == 0 {
		return nil
	}

	// Composite-literal keys name the field, not its value.
	litKeys := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						litKeys[id] = true
					}
				}
			}
			return true
		})
	}

	// Pass 2: every remaining use of an atomically-accessed variable is a
	// plain load or store.
	type plainUse struct {
		id *ast.Ident
		v  *types.Var
		f  *ast.File
	}
	var uses []plainUse
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || atomicIdents[id] || litKeys[id] {
				return true
			}
			if v, ok := info.Uses[id].(*types.Var); ok && atomicVars[v] {
				uses = append(uses, plainUse{id: id, v: v, f: f})
			}
			return true
		})
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].id.Pos() < uses[j].id.Pos() })

	for _, u := range uses {
		allows := fileAllowances(pass.Fset, u.f)
		line := pass.Fset.Position(u.id.Pos()).Line
		waived, hasReason := allowedAt(allows, "atomicmix", line)
		switch {
		case !waived:
			pass.Reportf(u.id.Pos(), "%s is accessed via sync/atomic elsewhere but plainly here; mixed access races — use sync/atomic consistently or waive with %s atomicmix <reason>", u.v.Name(), AllowDirective)
		case !hasReason:
			pass.Reportf(u.id.Pos(), "%s atomicmix waiver needs a reason", AllowDirective)
		}
	}
	return nil
}
