package load_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

// TestBlankImportRecorded proves a blank import is a real dependency
// edge: the blank-imported package's init still runs, so the loader must
// record the edge and the driver must compute facts for it — and
// analyzing the importer must stay clean, because no call reaches the
// impurity.
func TestBlankImportRecorded(t *testing.T) {
	loader := load.NewFixtureLoader("../testdata/src")
	pkgs, err := loader.Load("blankimp/a")
	if err != nil {
		t.Fatalf("loading blankimp/a: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	imports := pkgs[0].Imports
	if len(imports) != 1 || imports[0].PkgPath != "blankimp/impure" {
		t.Fatalf("blank import edge not recorded: got %d imports %v", len(imports), importPaths(imports))
	}
	findings, err := lint.Run(pkgs, lint.All(), nil)
	if err != nil {
		t.Fatalf("analyzing blankimp/a: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding [%s] %s:%d: %s", f.Analyzer, f.File, f.Line, f.Message)
	}
}

// TestImportCycleError proves a cycle is rejected with a message naming
// a package on the cycle, rather than recursing forever or deadlocking
// the type-checker.
func TestImportCycleError(t *testing.T) {
	loader := load.NewFixtureLoader("../testdata/src")
	_, err := loader.Load("cycle/a")
	if err == nil {
		t.Fatal("loading cycle/a succeeded; want an import-cycle error")
	}
	if !strings.Contains(err.Error(), "import cycle through") {
		t.Fatalf("error %q does not mention the import cycle", err)
	}
}

// TestTestFilesDoNotTaint proves _test.go files are outside the loaded
// file set: a package whose only wall-clock use is in its test file
// loads with one file and analyzes clean.
func TestTestFilesDoNotTaint(t *testing.T) {
	loader := load.NewFixtureLoader("../testdata/src")
	pkgs, err := loader.Load("testonly/a")
	if err != nil {
		t.Fatalf("loading testonly/a: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("got %d packages / %d files, want 1 / 1 (no _test.go)", len(pkgs), len(pkgs[0].Files))
	}
	findings, err := lint.Run(pkgs, lint.All(), nil)
	if err != nil {
		t.Fatalf("analyzing testonly/a: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding [%s] %s:%d: %s", f.Analyzer, f.File, f.Line, f.Message)
	}
}

// TestWalkSkipsNestedModules proves ./... stops at a nested module the
// way `go list ./...` does: a subdirectory with its own go.mod is another
// module, so its packages must not load under this module's path.
func TestWalkSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod":             "module outer\n\ngo 1.22\n",
		"a/a.go":             "package a\n",
		"nested/go.mod":      "module nested\n\ngo 1.22\n",
		"nested/n.go":        "package nested\n",
		"nested/inner/i.go":  "package inner\n",
		"a/deeper/deeper.go": "package deeper\n",
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := load.NewModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading ./...: %v", err)
	}
	if got, want := importPaths(pkgs), []string{"outer/a", "outer/a/deeper"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("./... loaded %v, want %v", got, want)
	}
}

func importPaths(pkgs []*load.Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.PkgPath)
	}
	return out
}
