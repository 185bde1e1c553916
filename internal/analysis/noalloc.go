package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc rejects allocating constructs in functions annotated
// //beagle:noalloc: the pruning kernels, the recorder's fast path and the
// worker-pool dispatch primitive. The paper's throughput figures (Fig. 4,
// Table III) assume these bodies execute no allocations — a silently
// introduced make, boxed interface value or fmt call erases exactly the
// margin the evaluation measures, and a time.Now on the recorder's disabled
// path breaks its single-atomic-load budget.
//
// Flagged constructs:
//
//   - make, new, append (growth can reallocate), and slice/map composite
//     literals;
//   - taking the address of a composite literal;
//   - closures that capture outer variables (captured closures escape), and
//     go statements;
//   - implicit or explicit conversions of concrete values to interface
//     types (boxing), including variadic ...any arguments;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - any call into the fmt package, and time.Now;
//   - calls to same-package functions that are not themselves annotated
//     //beagle:noalloc (the contract is verified per function, so it must
//     cover the whole same-package call tree).
//
// The check is syntactic, so it also flags constructs that look allocating
// and are not — boxing a value only to type-switch on it, an allocation on a
// path the contract excludes. Such a site can be waived with a trailing or
// immediately-preceding //beagle:allow noalloc <reason>; the function's
// testing.AllocsPerRun guard (see allocguard) is what then holds it to zero.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "reject allocating constructs in //beagle:noalloc functions",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	// Pre-pass: which functions in this package carry the annotation?
	annotated := map[*types.Func]bool{}
	type markedFunc struct {
		fd     *ast.FuncDecl
		allows []allowance // the waivers of fd's file
	}
	var marked []markedFunc
	for _, f := range pass.Files {
		allows := fileAllowances(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fd.Doc, NoAllocDirective) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				annotated[obj] = true
			}
			marked = append(marked, markedFunc{fd, allows})
		}
	}
	for _, m := range marked {
		if m.fd.Body == nil {
			continue // assembly: nothing to inspect, the runtime guard covers it
		}
		checkNoAllocBody(pass, m.fd, annotated, m.allows)
	}
	return nil
}

func checkNoAllocBody(pass *Pass, fd *ast.FuncDecl, annotated map[*types.Func]bool, allows []allowance) {
	info := pass.TypesInfo
	name := fd.Name.Name
	report := func(pos token.Pos, format string, args ...any) {
		switch waived, hasReason := allowedAt(allows, "noalloc", pass.Fset.Position(pos).Line); {
		case !waived:
			pass.Reportf(pos, "%s is //beagle:noalloc: "+format, append([]any{name}, args...)...)
		case !hasReason:
			pass.Reportf(pos, "%s noalloc waiver needs a reason", AllowDirective)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNoAllocCall(pass, report, n, annotated)
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if caps := capturedVars(info, n); len(caps) > 0 {
				report(n.Pos(), "closure captures %s and escapes", caps[0].Name())
				return false // inner body is the closure's problem once flagged
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string concatenation allocates")
			}
			checkInterfaceAssign(info, report, n)
		case *ast.ReturnStmt:
			checkInterfaceReturn(pass, report, fd, n)
		}
		return true
	})
}

// checkNoAllocCall vets one call expression inside a noalloc body: builtins,
// conversions, deny-listed stdlib calls, interface-boxing arguments, and the
// same-package noalloc closure property.
func checkNoAllocCall(pass *Pass, report func(token.Pos, string, ...any), call *ast.CallExpr, annotated map[*types.Func]bool) {
	info := pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow and reallocate its backing array")
			}
			return
		}
	}
	// Type conversions: interface boxing and string<->byte-slice copies.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			switch {
			case isInterface(to) && from != nil && !isInterface(from):
				report(call.Pos(), "conversion to interface type %s boxes its operand", types.TypeString(to, types.RelativeTo(pass.Pkg)))
			case isStringType(to) && isByteOrRuneSlice(from):
				report(call.Pos(), "[]byte/[]rune to string conversion allocates")
			case isByteOrRuneSlice(to) && isStringType(from):
				report(call.Pos(), "string to []byte/[]rune conversion allocates")
			}
		}
		return
	}
	// Deny-listed packages/functions, and same-package contract coverage.
	if fn := calleeFunc(info, call); fn != nil {
		if fn.Pkg() != nil {
			switch {
			case fn.Pkg().Path() == "fmt":
				report(call.Pos(), "call to %s.%s allocates", fn.Pkg().Name(), fn.Name())
			case fn.Pkg().Path() == "time" && fn.Name() == "Now":
				report(call.Pos(), "time.Now is forbidden on the recorder's fast path")
			case fn.Pkg() == pass.Pkg && !annotated[fn] && fn.Name() != "" && !isAccessorMethod(fn):
				report(call.Pos(), "calls same-package %s, which is not //beagle:noalloc", fn.Name())
			}
		}
	}
	// Arguments implicitly converted to interface parameters (boxing).
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i).Type()
		}
		at := info.TypeOf(arg)
		if isInterface(param) && at != nil && !isInterface(at) && !isUntypedNil(info, arg) {
			report(arg.Pos(), "argument boxes %s into interface %s", types.TypeString(at, types.RelativeTo(pass.Pkg)), types.TypeString(param, types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkInterfaceAssign flags assignments that box a concrete value into an
// interface-typed variable.
func checkInterfaceAssign(info *types.Info, report func(token.Pos, string, ...any), n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := info.TypeOf(lhs)
		rt := info.TypeOf(n.Rhs[i])
		if isInterface(lt) && rt != nil && !isInterface(rt) && !isUntypedNil(info, n.Rhs[i]) {
			report(n.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
		}
	}
}

// checkInterfaceReturn flags return statements that box concrete values into
// interface-typed results.
func checkInterfaceReturn(pass *Pass, report func(token.Pos, string, ...any), fd *ast.FuncDecl, n *ast.ReturnStmt) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if len(n.Results) != results.Len() {
		return // naked return or multi-value call; nothing new is boxed here
	}
	for i, res := range n.Results {
		rt := pass.TypesInfo.TypeOf(res)
		if isInterface(results.At(i).Type()) && rt != nil && !isInterface(rt) && !isUntypedNil(pass.TypesInfo, res) {
			report(res.Pos(), "return boxes a concrete value into an interface result")
		}
	}
}

// capturedVars returns the variables a function literal references that are
// declared outside it (its free variables), in source order.
func capturedVars(info *types.Info, fn *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Package-level variables are shared state, not captures.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < fn.Pos() || v.Pos() > fn.End() {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// isAccessorMethod reports whether fn is a method; method calls on
// already-annotated receivers are vetted at their own declaration, and
// flagging every unannotated method would force annotations onto tiny
// generated accessors (atomic.Load/Store-style wrappers). Same-package
// *functions* must be annotated; same-package *methods* are only vetted if
// they carry the annotation themselves.
func isAccessorMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
