package repro

// Surface gate: every exported function and method of the platform's
// packages has a caller outside the tests, or it is on the allowlist below
// with the reason it stays. A name only tests reach is surface nobody uses:
// it goes, or it earns a caller in the experiment that measures the claim it
// serves.
//
// The scan type-checks the non-test files of every package in the module
// (benchmark/, cmd/ and examples/ included) with go/types, and keys every
// use by its function's full name. The standard library comes from the
// export data `go list -export` reports; the module's own packages are
// checked from source in dependency order, so an interface and the types
// that implement it share one type universe. A method is exempt when its
// receiver implements an interface that declares it (the module's own, or
// one of the standard ones in stdIfaces): such a method is reached through
// the interface, where no use names it.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfacePackages are the packages whose exported names must have a caller:
// scripts/api.sh's list plus coord, the two log structures (seglog and
// reclog) and the fleet (scheduler and autoscale).
var surfacePackages = []string{"core", "faas", "pulsar", "ledger", "jiffy", "gateway", "simclock", "obs", "coord", "seglog", "reclog", "scheduler", "autoscale"}

// surfaceAllowlist holds the exported names that stay without a non-test
// caller, each with its reason.
var surfaceAllowlist = map[string]string{
	"gateway.(*APIError).Unwrap":        "errors.Is and errors.As call it",
	"gateway.(*Client).List":            "the client side of the served GET /v1/functions route",
	"gateway.(*Client).Delete":          "the client side of the served DELETE /v1/functions/{name} route",
	"gateway.(*Client).Invoice":         "the client side of the served GET /v1/invoice route",
	"obs.(*Tracer).SetSampler":          "the tail sampler, held deterministic by TestTailSamplerDeterministic; the switch sampling policies turn on",
	"obs.(*Tracer).SetMaxSpans":         "sizes the span log for the tail-sampler and span-cap tests across packages",
	"obs.(*Tracer).Stats":               "kept and dropped span counts, read by cross-package tests of the sampler and the span cap",
	"obs.(*Tracer).CanonicalText":       "the chaos trace-determinism digest compares two runs through it",
	"pulsar.(*Cluster).SetHandoffDelay": "a chaos hook: its test lives in chaos, which imports pulsar",
	"jiffy.(*Namespace).Traced":         "a handler continues its trace into Jiffy (TestSingleTraceAcrossSubsystems)",
	"jiffy.(TracedNamespace).Put":       "a handler continues its trace into Jiffy (TestSingleTraceAcrossSubsystems)",
}

// claimRoots are the packages that measure or check the paper's claims: the
// experiment tables, the SeBS suite and the conformance explorer.
var claimRoots = []string{"./internal/experiments", "./internal/sebs", "./internal/conform"}

// unclaimedAllowlist holds the internal packages that stay outside every
// claim root's dependencies, each with its reason.
var unclaimedAllowlist = map[string]string{
	"graph":    "claim or delete: ROADMAP item 7",
	"stateful": "claim or delete: ROADMAP item 7",
}

// TestEveryInternalPackageIsUnderAClaim: every internal package is a
// dependency of a claim root, or on unclaimedAllowlist with its reason. A
// system no experiment, benchmark app or conformance check reaches is code
// no claim rests on: it earns a claim, or it goes.
func TestEveryInternalPackageIsUnderAClaim(t *testing.T) {
	claimed := map[string]bool{}
	for _, p := range listPackages(t, append([]string{"-deps"}, claimRoots...)...) {
		claimed[p] = true
	}
	const prefix = "repro/internal/"
	internal := map[string]bool{}
	for _, p := range listPackages(t, "./internal/...") {
		name := strings.TrimPrefix(p, prefix)
		internal[name] = true
		reason, allowed := unclaimedAllowlist[name]
		switch {
		case !claimed[p] && !allowed:
			t.Errorf("%s is under no claim: no experiment, SeBS app or conformance check reaches it", p)
		case claimed[p] && allowed:
			t.Errorf("unclaimedAllowlist names %s (%q), which a claim root now reaches: drop the entry", name, reason)
		}
	}
	for name := range unclaimedAllowlist {
		if !internal[name] {
			t.Errorf("unclaimedAllowlist names %s, which is not an internal package: drop the entry", name)
		}
	}
}

// listPackages runs go list with args and returns the import paths it prints.
func listPackages(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	return strings.Fields(string(out))
}

// stdIfaces are the standard-library interfaces whose methods a receiver may
// implement without a caller naming them.
var stdIfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"container/heap", "Interface"},
	{"sort", "Interface"},
	{"net/http", "Handler"},
}

type listedPkg struct {
	path, dir string
	files     []string
	imports   []string
}

func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the module")
	}
	pkgs, exports := goList(t)
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	// Type-check the module's packages from source in dependency order, so
	// one package's uses and another's declarations are the same objects.
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	uses := map[string]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, si := range stdIfaces {
		p, err := std.Import(si.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
	}
	for _, lp := range topoSort(pkgs) {
		files := make([]*ast.File, 0, len(lp.files))
		for _, name := range lp.files {
			f, err := parser.ParseFile(fset, filepath.Join(lp.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(lp.path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.path, err)
		}
		checked[lp.path] = p
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin().FullName()] = true
			}
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && tn.Type().(*types.Named).TypeParams() == nil {
				ifaces = append(ifaces, it)
			}
		}
	}

	declared := map[string]bool{} // by short name
	flagged := map[string]bool{}
	for _, short := range surfacePackages {
		p := checked["repro/internal/"+short]
		if p == nil {
			t.Fatalf("package internal/%s not found", short)
		}
		for _, fn := range exportedFuncs(p) {
			name := shortName(fn.FullName())
			declared[name] = true
			if !uses[fn.FullName()] && !implemented(fn, ifaces) {
				flagged[name] = true
			}
		}
	}
	var missing []string
	for name := range flagged {
		if _, ok := surfaceAllowlist[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no caller outside the tests: give it one or delete it", name)
	}
	for name := range surfaceAllowlist {
		switch {
		case !declared[name]:
			t.Errorf("allowlist names %s, which is not an exported function or method: drop the entry", name)
		case !flagged[name]:
			t.Errorf("allowlist names %s, which now has a caller: drop the entry", name)
		}
	}
}

// shortName turns a full name such as "(*repro/internal/obs.Tracer).Stats"
// into the allowlist's "obs.(*Tracer).Stats".
func shortName(full string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(full, "(") {
		return strings.TrimPrefix(full, prefix)
	}
	star := ""
	rest := full[1:]
	if strings.HasPrefix(rest, "*") {
		star, rest = "*", rest[1:]
	}
	rest = strings.TrimPrefix(rest, prefix)
	pkg, typ, _ := strings.Cut(rest, ".")
	return pkg + ".(" + star + typ
}

// exportedFuncs lists p's exported package-level functions and the exported
// methods declared on its named types.
func exportedFuncs(p *types.Package) []*types.Func {
	var out []*types.Func
	for _, name := range p.Scope().Names() {
		switch obj := p.Scope().Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// implemented reports whether fn is a method whose receiver type implements
// an interface in ifaces that declares a method of fn's name.
func implemented(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named := typ.(*types.Named)
	if named.TypeParams() != nil {
		return false
	}
	for _, it := range ifaces {
		if declares(it, fn.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList reports the module's packages (non-test files and imports) and the
// export data file of every package they depend on.
func goList(t *testing.T) ([]listedPkg, map[string]string) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{.DepOnly}}\t{{.Standard}}\t{{.Dir}}\t{{join .GoFiles \" \"}}\t{{join .Imports \" \"}}", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	var pkgs []listedPkg
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 7 {
			t.Fatalf("go list: unexpected line %q", sc.Text())
		}
		exports[f[0]] = f[1]
		if f[2] == "false" && f[3] == "false" {
			pkgs = append(pkgs, listedPkg{path: f[0], dir: f[4], files: strings.Fields(f[5]), imports: strings.Fields(f[6])})
		}
	}
	return pkgs, exports
}

// topoSort orders pkgs so every package follows the module packages it
// imports.
func topoSort(pkgs []listedPkg) []listedPkg {
	byPath := map[string]listedPkg{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	done := map[string]bool{}
	var out []listedPkg
	var visit func(p listedPkg)
	visit = func(p listedPkg) {
		if done[p.path] {
			return
		}
		done[p.path] = true
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
