// Package analysis is a deliberately small, dependency-free mirror of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo
// vendors no third-party modules, so sslint carries its own framework; the
// shapes match the upstream API closely enough that an analyzer written
// here ports to x/tools mechanically if the module ever grows the
// dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
)

// Analyzer is one static check. Run inspects the package presented by the
// Pass and reports findings via Pass.Report; the returned value is unused
// today (upstream uses it for analyzer results) and may be nil.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sslint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest explains the precise rule and its escape hatches.
	Doc string
	// Run performs the check.
	Run func(*Pass) (any, error)
	// FactTypes declares the fact types this analyzer exports (one
	// prototype value per type). An analyzer with FactTypes runs over
	// every package in the dependency closure — facts must exist for
	// exempt packages too, so impurity cannot launder through them — with
	// diagnostics filtered to the scoped sink side by the driver.
	FactTypes []Fact
	// Requires lists analyzers whose facts this analyzer imports. The
	// driver runs requirements first on each package, so by the time Run
	// executes, the current package's objects already carry the required
	// analyzers' facts.
	Requires []*Analyzer
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's complete non-test syntax. Scope-exempt
	// files are present — fact computation must see them — and the driver
	// drops diagnostics positioned inside them afterwards.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// Universe accumulates every named type seen so far in the run's
	// bottom-up package order; interprocedural analyzers resolve interface
	// method calls against it (class-hierarchy analysis).
	Universe *callgraph.Universe

	// Fact plumbing, wired by the driver. Facts attach to type-checker
	// objects; because every package in a run shares one loader (and thus
	// one object graph), a fact exported while analyzing a dependency is
	// importable verbatim when a later package mentions the same object —
	// the in-memory equivalent of upstream's fact serialization, carried
	// across the recursive type-check in internal/lint/load and exported
	// bottom-up in dependency order.

	// ExportObjectFact attaches fact to obj (a package-level object of the
	// current package, or a method thereof).
	ExportObjectFact func(obj types.Object, fact Fact)
	// ImportObjectFact copies obj's fact of *fact's concrete type into
	// fact and reports whether one was found. obj may belong to any
	// package analyzed earlier in the run (or the current one).
	ImportObjectFact func(obj types.Object, fact Fact) bool
	// ExportPackageFact attaches fact to the current package.
	ExportPackageFact func(fact Fact)
	// ImportPackageFact copies pkg's fact of *fact's concrete type into
	// fact and reports whether one was found.
	ImportPackageFact func(pkg *types.Package, fact Fact) bool

	// InSinkScope reports whether the named analyzer's diagnostics would
	// be reported at a position inside pkgPath/filename under the run's
	// scope. Interprocedural analyzers use it to report at the scope
	// frontier: a call from gated code into exempt code is the sink, the
	// exempt body is the source, and exemption applies at the sink only.
	InSinkScope func(analyzer, pkgPath, filename string) bool
	// TrustedImpure reports whether the function (by types.Func.FullName)
	// is asserted fingerprint-neutral by the run's scope configuration,
	// so its own impurity is not reported at call sites.
	TrustedImpure func(fullName string) bool
}

// Fact is a typed datum attached to a types.Object or *types.Package by
// one analyzer and importable by analyzers that require it. Implementations
// must be pointer types so ImportObjectFact can copy into them.
type Fact interface{ AFact() }

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
