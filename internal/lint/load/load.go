// Package load turns Go source on disk into type-checked packages for the
// sslint analyzers, with no dependency on golang.org/x/tools or on network
// access. Local packages (anything under the module path) are parsed and
// type-checked recursively; standard-library imports are satisfied by the
// stdlib source importer, which type-checks GOROOT sources offline.
//
// Two flavours exist:
//
//   - NewModuleLoader loads real packages from a module root, resolving
//     "./..."-style patterns by walking the tree (testdata and hidden
//     directories are skipped, exactly as the go tool does).
//   - NewFixtureLoader loads analysistest-style fixtures from a
//     testdata/src root, where an import path "a/b" resolves to the
//     directory <root>/a/b if it exists and falls back to the standard
//     library otherwise.
//
// Only non-test files are loaded: sslint enforces invariants on the
// simulation code proper, while tests remain free to use wall-clock
// timeouts and ad-hoc goroutines.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Imports holds the local (same module / same fixture root) packages
	// this one imports, including blank imports, sorted by import path.
	// Standard-library imports are absent: facts only attach to local
	// code. The driver walks these edges to analyze dependencies
	// bottom-up, so facts are always exported before they are imported.
	Imports []*Package
}

// InjectedFile is a synthetic source file appended to a package at load
// time. Tests use it to prove the analyzers catch regressions: injecting a
// time.Now() into repro/internal/core must produce a finding without
// touching the real tree.
type InjectedFile struct {
	Name string // file name, e.g. "injected.go"
	Src  string // complete file source
}

// Loader loads and caches packages against one shared FileSet. It is not
// safe for concurrent use.
type Loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	fixtures   string // testdata/src root, fixture mode

	// Inject appends synthetic files to the named packages (keyed by
	// import path) when they are loaded. Set before the first Load.
	Inject map[string][]InjectedFile

	ctxt     build.Context
	std      types.ImporterFrom
	cache    map[string]*Package
	checking map[string]bool
}

func newLoader() *Loader {
	fset := token.NewFileSet()
	ctxt := build.Default
	// Cgo-free loading: the pure-Go fallbacks in net and friends
	// type-check from source; cgo preprocessing would need the C
	// toolchain and adds nothing for analysis.
	ctxt.CgoEnabled = false
	build.Default.CgoEnabled = false
	return &Loader{
		fset:     fset,
		ctxt:     ctxt,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:    make(map[string]*Package),
		checking: make(map[string]bool),
	}
}

// NewModuleLoader returns a loader rooted at the module directory
// containing go.mod; the module path is read from it.
func NewModuleLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePathOf(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader()
	l.moduleDir = abs
	l.modulePath = modPath
	return l, nil
}

// NewFixtureLoader returns a loader that resolves import paths under
// srcRoot first (analysistest layout: <srcRoot>/<importpath>/*.go) and the
// standard library second.
func NewFixtureLoader(srcRoot string) *Loader {
	l := newLoader()
	l.fixtures = srcRoot
	return l
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Root returns the directory findings should be reported relative to: the
// module root for module loaders, the fixture source root otherwise.
func (l *Loader) Root() string {
	if l.fixtures != "" {
		return l.fixtures
	}
	return l.moduleDir
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Load resolves patterns to packages and type-checks them. Module loaders
// accept "./...", "./dir", "./dir/..." and plain import paths under the
// module; fixture loaders accept import paths relative to the fixture
// root. Results are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.loadLocal(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// expand turns CLI patterns into a sorted, deduplicated import-path list.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case l.fixtures != "":
			add(pat)
		case pat == "./..." || pat == "...":
			paths, err := l.walkModule(l.moduleDir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			dir, err := l.patternDir(root)
			if err != nil {
				return nil, err
			}
			paths, err := l.walkModule(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			dir, err := l.patternDir(pat)
			if err != nil {
				return nil, err
			}
			p, ok := l.dirImportPath(dir)
			if !ok {
				return nil, fmt.Errorf("pattern %q resolves outside module %s", pat, l.modulePath)
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// patternDir maps one non-wildcard pattern to a directory.
func (l *Loader) patternDir(pat string) (string, error) {
	if strings.HasPrefix(pat, "./") || pat == "." {
		return filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimPrefix(pat, "./"))), nil
	}
	if pat == l.modulePath {
		return l.moduleDir, nil
	}
	if rest, ok := strings.CutPrefix(pat, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), nil
	}
	return "", fmt.Errorf("pattern %q is neither relative nor under module %s", pat, l.modulePath)
}

// dirImportPath maps a directory under the module root to its import path.
func (l *Loader) dirImportPath(dir string) (string, bool) {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false
	}
	if rel == "." {
		return l.modulePath, true
	}
	return path.Join(l.modulePath, filepath.ToSlash(rel)), true
}

// walkModule finds every directory under root holding a buildable
// package. Like `go list ./...`, it stops at a nested module: a directory
// with its own go.mod belongs to that module, not this one.
func (l *Loader) walkModule(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != l.moduleDir {
			return filepath.SkipDir
		}
		if bp, err := l.ctxt.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			if ip, ok := l.dirImportPath(p); ok {
				out = append(out, ip)
			}
		}
		return nil
	})
	return out, err
}

// localDir resolves an import path to a local source directory, or ok=false
// if the path should be satisfied by the standard library.
func (l *Loader) localDir(importPath string) (string, bool) {
	if l.fixtures != "" {
		dir := filepath.Join(l.fixtures, filepath.FromSlash(importPath))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	}
	if importPath == l.modulePath {
		return l.moduleDir, true
	}
	if rest, ok := strings.CutPrefix(importPath, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer over the loader's two-tier resolution.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.localDir(importPath); ok {
		pkg, err := l.loadLocal(importPath)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(importPath, l.moduleDir, 0)
}

// loadLocal parses and type-checks one local package (memoised).
func (l *Loader) loadLocal(importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	dir, ok := l.localDir(importPath)
	if !ok {
		return nil, fmt.Errorf("package %s not found locally", importPath)
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	for _, inj := range l.Inject[importPath] {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, inj.Name), inj.Src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var terrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(terrs) < 10 {
				terrs = append(terrs, err.Error())
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("type errors in %s:\n  %s", importPath, strings.Join(terrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	pkg := &Package{
		PkgPath: importPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	// Record local import edges (blank imports included — a blank import
	// still runs the dependency's inits, so its facts still matter). The
	// type check above has already populated the cache for each of them.
	seenImp := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seenImp[p] {
				continue
			}
			seenImp[p] = true
			if dep, ok := l.cache[p]; ok {
				pkg.Imports = append(pkg.Imports, dep)
			}
		}
	}
	sort.Slice(pkg.Imports, func(i, j int) bool { return pkg.Imports[i].PkgPath < pkg.Imports[j].PkgPath })
	l.cache[importPath] = pkg
	return pkg, nil
}
