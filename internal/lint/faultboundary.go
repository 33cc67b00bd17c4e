package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// V1SurfaceFact marks a function that builds and returns a mux carrying
// /v1 routes (e.g. (*studysvc.Manager).Handler). Wrapping its result in
// the fault layer would subject the control plane to injected failures.
type V1SurfaceFact struct{}

func (*V1SurfaceFact) AFact() {}

// V1RouteFact marks a function registered as the handler of a /v1 route.
type V1RouteFact struct{}

func (*V1RouteFact) AFact() {}

// FaultWrapperFact marks a function that forwards one of its parameters
// into faults.Handler's wrapped-handler argument, so the ban follows the
// wrap through helpers. Param is the forwarded parameter's index.
type FaultWrapperFact struct{ Param int }

func (*FaultWrapperFact) AFact() {}

// FaultBoundary pins PR 8's "any 5xx on /v1 is real" property.
var FaultBoundary = &analysis.Analyzer{
	Name: "faultboundary",
	Doc: `/v1 handlers stay outside faults.Handler; sim packages stay off net/http

The loadtest contract is that every non-injected request to the /v1
study API succeeds: injected faults exercise the *crawl* path only, so a
5xx on the control plane is always a real bug. That holds only while no
/v1 handler is reachable through faults.Handler. This analyzer exports
facts marking /v1 mux builders (V1SurfaceFact), registered /v1 route
handlers (V1RouteFact) and helpers that forward a parameter into
faults.Handler (FaultWrapperFact), then reports any faults.Handler (or
wrapper) call whose handler argument traces back to a /v1 surface.

Second rule: packages in the "faultboundary/imports" scope — the
deterministic sim core minus the two sanctioned HTTP-facing packages
(faults, simweb) — must not import net/http at all; the fault boundary
is a property of the package graph, not of call-site discipline.`,
	FactTypes: []analysis.Fact{(*V1SurfaceFact)(nil), (*V1RouteFact)(nil), (*FaultWrapperFact)(nil)},
	Run:       runFaultBoundary,
}

func runFaultBoundary(pass *analysis.Pass) (any, error) {
	rows := exportV1Rows(pass)
	exportV1Facts(pass, rows)
	exportWrapperFacts(pass)

	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, imp := range f.Imports {
			if imp.Path.Value == `"net/http"` &&
				pass.InSinkScope("faultboundary/imports", pass.Pkg.Path(), fname) {
				pass.Reportf(imp.Pos(), "simulation package %s imports net/http; the HTTP boundary lives in faults and simweb — route real-world traffic through them", pass.Pkg.Path())
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFaultWraps(pass, rows, fd)
		}
	}
	return nil, nil
}

// exportV1Rows finds route-table rows — composite literals whose first
// element is a pattern literal containing "/v1" — marks every function a
// row references a V1Route, and returns the row types, so a mux
// registration reading its pattern off such a row counts as /v1.
func exportV1Rows(pass *analysis.Pass) map[types.Type]bool {
	rows := make(map[types.Type]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 || !isV1Literal(lit.Elts[0]) {
				return true
			}
			rows[pass.TypesInfo.TypeOf(lit)] = true
			for _, e := range lit.Elts[1:] {
				for _, h := range referencedFuncs(pass, e) {
					pass.ExportObjectFact(h, &V1RouteFact{})
				}
			}
			return true
		})
	}
	return rows
}

func isV1Literal(e ast.Expr) bool {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		e = kv.Value
	}
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "/v1")
}

// exportV1Facts finds /v1 mux registrations: the enclosing function
// becomes a V1Surface and every function referenced in the handler
// argument a V1Route.
func exportV1Facts(pass *analysis.Pass, rows map[types.Type]bool) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isV1Registration(pass, rows, call) {
					return true
				}
				if fn != nil {
					pass.ExportObjectFact(fn, &V1SurfaceFact{})
				}
				for _, arg := range call.Args[1:] {
					for _, h := range referencedFuncs(pass, arg) {
						pass.ExportObjectFact(h, &V1RouteFact{})
					}
				}
				return true
			})
		}
	}
}

// isV1Registration matches x.Handle("…/v1…", h) / x.HandleFunc("…/v1…", h),
// and x.Handle(row.pattern, h) over a /v1 route-table row.
func isV1Registration(pass *analysis.Pass, rows map[types.Type]bool, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") || len(call.Args) < 2 {
		return false
	}
	if field, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
		return rows[pass.TypesInfo.TypeOf(field.X)]
	}
	return isV1Literal(call.Args[0])
}

// referencedFuncs collects the declared functions an expression mentions
// (handler args are typically method values, idents, or small wrappers
// around them).
func referencedFuncs(pass *analysis.Pass, e ast.Expr) []*types.Func {
	var out []*types.Func
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// exportWrapperFacts marks functions that forward a parameter into the
// handler argument of faults.Handler (directly or via an already-marked
// wrapper), so cmd-layer helpers like handlerFor carry the ban to their
// call sites.
func exportWrapperFacts(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Params == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			params := make(map[*types.Var]int)
			i := 0
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						params[v] = i
					}
					i++
				}
				if len(field.Names) == 0 {
					i++
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				arg, ok := wrappedHandlerArg(pass, call)
				if !ok {
					return true
				}
				ast.Inspect(arg, func(m ast.Node) bool {
					id, ok := m.(*ast.Ident)
					if !ok {
						return true
					}
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						if idx, isParam := params[v]; isParam {
							pass.ExportObjectFact(fn, &FaultWrapperFact{Param: idx})
							return false
						}
					}
					return true
				})
				return true
			})
		}
	}
}

// wrappedHandlerArg returns the handler argument of a call that wraps it
// in the fault layer: faults.Handler(plan, h) -> h, or wrapper(..., h)
// at the recorded parameter index of a FaultWrapperFact-carrying callee.
func wrappedHandlerArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil {
		return nil, false
	}
	if callee.Name() == "Handler" && callee.Pkg() != nil && callee.Pkg().Name() == "faults" {
		if len(call.Args) >= 2 {
			return call.Args[1], true
		}
		return nil, false
	}
	var wf FaultWrapperFact
	if pass.ImportObjectFact(callee, &wf) && wf.Param < len(call.Args) {
		return call.Args[wf.Param], true
	}
	return nil, false
}

// checkFaultWraps reports fault-layer wrap calls whose handler argument
// traces back to a /v1 surface.
func checkFaultWraps(pass *analysis.Pass, rows map[types.Type]bool, fd *ast.FuncDecl) {
	// v1Muxes: locals that had a /v1 route registered on them in this
	// function — wrapping such a mux wraps the control plane.
	v1Muxes := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isV1Registration(pass, rows, call) {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
					v1Muxes[v] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, ok := wrappedHandlerArg(pass, call)
		if !ok {
			return true
		}
		if why, bad := tracesToV1(pass, fd, arg, v1Muxes, 0); bad {
			pass.Reportf(call.Pos(), "/v1 control plane wrapped in the fault layer (%s); injected faults must only touch the crawl path — mount the API outside faults.Handler", why)
		}
		return true
	})
}

// tracesToV1 reports whether the handler expression reaches a /v1
// surface: a call to a V1Surface function, a reference to a V1Route
// handler, or a local mux that had /v1 registrations. Local variables are
// chased through their assignments within the enclosing function.
func tracesToV1(pass *analysis.Pass, fd *ast.FuncDecl, e ast.Expr, v1Muxes map[*types.Var]bool, depth int) (string, bool) {
	if depth > 4 {
		return "", false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		var callee *types.Func
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		}
		if callee != nil {
			var sf V1SurfaceFact
			if pass.ImportObjectFact(callee, &sf) {
				return callee.Name() + " builds the /v1 mux", true
			}
		}
		// Pass-through wrappers (http.TimeoutHandler, middleware): the
		// wrap applies to whatever flows through the arguments.
		for _, a := range e.Args {
			if why, bad := tracesToV1(pass, fd, a, v1Muxes, depth+1); bad {
				return why, true
			}
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
			if v1Muxes[v] {
				return e.Name + " carries /v1 routes", true
			}
			// Chase local single-assignment dataflow.
			var why string
			bad := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || bad || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
						if w, b := tracesToV1(pass, fd, as.Rhs[i], v1Muxes, depth+1); b {
							why, bad = w, true
						}
					}
				}
				return true
			})
			if bad {
				return why, true
			}
		}
		if fn, ok := pass.TypesInfo.Uses[e].(*types.Func); ok {
			var rf V1RouteFact
			if pass.ImportObjectFact(fn, &rf) {
				return fn.Name() + " handles a /v1 route", true
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			var rf V1RouteFact
			if pass.ImportObjectFact(fn, &rf) {
				return fn.Name() + " handles a /v1 route", true
			}
			var sf V1SurfaceFact
			if pass.ImportObjectFact(fn, &sf) {
				return fn.Name() + " builds the /v1 mux", true
			}
		}
	}
	return "", false
}
