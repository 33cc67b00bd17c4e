package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

func one(a *analysis.Analyzer) []*analysis.Analyzer { return []*analysis.Analyzer{a} }

func TestNoWallTime(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.NoWallTime), "nowalltime")
}

func TestSeededRand(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.SeededRand), "seededrand")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.MapOrder), "maporder")
}

func TestNilTelemetry(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.NilTelemetry), "niltelemetry")
}

func TestPoolOnly(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.PoolOnly), "poolonly")
}

// TestPurity needs an explicit scope: the frontier only exists when the
// caller's package is gated and the callee's is not. purity/sim is the
// gated simulation stand-in, purity/exempt the trusted-looking library
// that launders wall-clock reads through helpers and an interface.
func TestPurity(t *testing.T) {
	scope := &lint.Scope{
		Packages: map[string][]string{
			lint.NoWallTime.Name: {"purity/sim"},
			lint.Purity.Name:     {"purity/sim"},
		},
	}
	analysistest.RunScoped(t, "testdata/src", one(lint.Purity), scope, "purity/sim")
}

func TestRaceCapture(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.RaceCapture), "racecapture/a")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.CtxFlow), "ctxflow/a")
}

// TestDirectives runs the whole suite over the directive fixtures: used
// suppressions vanish, malformed/unknown/unused directives surface.
func TestDirectives(t *testing.T) {
	analysistest.Run(t, "testdata/src", lint.All(), "ignoredir")
}

func TestSnapshotFields(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.SnapshotFields), "snapshotfields")
}

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.LockDiscipline), "lockdiscipline")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.HotAlloc), "hotalloc")
}

// TestFaultBoundary needs an explicit scope: the wrap rule reports across
// the wiring packages while the net/http import ban consults the narrower
// "faultboundary/imports" pseudo-key — exactly how DefaultScope carves the
// real module.
func TestFaultBoundary(t *testing.T) {
	scope := &lint.Scope{
		Packages: map[string][]string{
			lint.FaultBoundary.Name: {"faultboundary/..."},
			"faultboundary/imports": {"faultboundary/sim"},
		},
	}
	analysistest.RunScoped(t, "testdata/src", one(lint.FaultBoundary), scope,
		"faultboundary/cmdpkg", "faultboundary/sim")
}

func TestAPICodes(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.APICodes), "apicodes")
}

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.Exhaustive), "exhaustive/a")
}

func TestErrFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", one(lint.ErrFlow), "errflow/a")
}
