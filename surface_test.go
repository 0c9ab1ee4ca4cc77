package repro

// Surface gate: every package-level function and method in internal/,
// exported or not, and every exported package-level var there has a user
// outside the tests, or it is on the allowlist below with the reason it
// stays. A name only tests reach is code nobody runs: it goes, or it earns a
// caller in the experiment that measures the claim it serves.
//
// The scan type-checks the non-test files of every package in the module
// (benchmark/, cmd/ and examples/ included) with go/types, and keys every
// use by its function's full name or its var's package path and name. The standard library comes from the
// export data `go list -export` reports; the module's own packages are
// checked from source in dependency order, so an interface and the types
// that implement it share one type universe. A method is exempt when its
// receiver implements an interface that declares it (the module's own, or
// one of the standard ones in stdIfaces): such a method is reached through
// the interface, where no use names it.
//
// Knob gate: every exported field of an internal/ Config, Options or Policy
// struct is set by non-test code outside its own package, or it is on
// knobAllowlist with the reason it stays. It reads the same type universe.

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

// surfaceAllowlist holds the names that stay without a non-test caller, each
// with its reason.
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
	"mlserve.MatVecSerial":              "the serial reference the coded MatVec tests compare against",
	"kvdb.(*DB).Vacuum":                 "bounds MVCC row history; ROADMAP item 13 gives it its caller",
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

// TestEveryExportedNameHasACaller: every package that go list ./internal/...
// prints is gated, so a new package is gated the day it lands. Its
// package-level functions and methods, exported or not, need a call (or any
// other use) outside the tests, and so do its exported package-level vars.
func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the module")
	}
	u := checkModule(t)
	uses := map[string]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, si := range stdIfaces {
		p, err := u.std.Import(si.pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(si.name).Type().Underlying().(*types.Interface))
	}
	for _, cp := range u.pkgs {
		for _, obj := range cp.info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				uses[obj.Origin().FullName()] = true
			case *types.Var:
				if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					uses[obj.Pkg().Path()+"."+obj.Name()] = true
				}
			}
		}
		for _, name := range cp.pkg.Scope().Names() {
			tn, ok := cp.pkg.Scope().Lookup(name).(*types.TypeName)
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
	for _, path := range listPackages(t, "./internal/...") {
		p := u.checked[path]
		if p == nil {
			t.Fatalf("package %s not found", path)
		}
		for _, fn := range gatedFuncs(p) {
			name := shortName(fn.FullName())
			declared[name] = true
			if !uses[fn.FullName()] && !implemented(fn, ifaces) {
				flagged[name] = true
			}
		}
		for _, v := range exportedVars(p) {
			full := path + "." + v.Name()
			name := shortName(full)
			declared[name] = true
			if !uses[full] {
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
		t.Errorf("%s has no user outside the tests: give it one or delete it", name)
	}
	for name := range surfaceAllowlist {
		switch {
		case !declared[name]:
			t.Errorf("allowlist names %s, which is not a function, method or exported var: drop the entry", name)
		case !flagged[name]:
			t.Errorf("allowlist names %s, which now has a caller: drop the entry", name)
		}
	}
}

// knobAllowlist holds the knobs that stay without a setter outside their own
// package's non-test code, each with its reason.
var knobAllowlist = map[string]string{
	"blob.PutOptions.IfMatch":          "conditional put, in DESIGN §1's inventory; benchmark/ passes PutOptions{}",
	"blob.PutOptions.IfNoneMatch":      "conditional put, in DESIGN §1's inventory; benchmark/ passes PutOptions{}",
	"gateway.Config.MaxBody":           "the front door's body cap, a deployment setting",
	"obs.SLOConfig.Objective":          "one of the objectives every SLOSnapshot reports: one value, not a knob",
	"obs.SLOConfig.LatencyObjective":   "one of the objectives every SLOSnapshot reports: one value, not a knob",
	"obs.SLOConfig.LatencyTarget":      "one of the objectives every SLOSnapshot reports: one value, not a knob",
	"obs.SamplerConfig.KeepFraction":   "the tail sampler's policy; ROADMAP item 13 turns the sampler on",
	"obs.SamplerConfig.Seed":           "the tail sampler's policy; ROADMAP item 13 turns the sampler on",
	"obs.SamplerConfig.SlowThreshold":  "the tail sampler's policy; ROADMAP item 13 turns the sampler on",
	"pulsar.ClusterConfig.ServiceTime": "the broker capacity model TestMultiBrokerScaleOut runs on: claim or delete, ROADMAP item 7",
	"sebs.Config.ColdEvery":            "the SeBS cold-start cadence: ROADMAP item 6",
}

// TestEveryKnobHasASetter: a knob is an exported field of an exported struct
// type in internal/ whose name ends in Config, Options or Policy. Non-test
// code in another package must set it — a composite-literal key, the left
// side of an assignment or ++/--, or its address — or it is on
// knobAllowlist with its reason. A knob only tests or its own package's
// defaults set is a second way to do what the default already does: it
// goes, with whatever only it switches on.
func TestEveryKnobHasASetter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the module")
	}
	u := checkModule(t)
	set := map[*types.Var]bool{}
	for _, cp := range u.pkgs {
		mark := func(id *ast.Ident) {
			if v, ok := cp.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != cp.pkg {
				set[v.Origin()] = true
			}
		}
		write := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				mark(sel.Sel)
			}
		}
		for _, f := range cp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						mark(key)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	flagged := map[string]bool{}
	for _, path := range listPackages(t, "./internal/...") {
		p := u.checked[path]
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isKnobType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() {
					continue
				}
				knob := shortName(path + "." + name + "." + v.Name())
				declared[knob] = true
				if !set[v] {
					flagged[knob] = true
				}
			}
		}
	}
	t.Logf("%d knobs, %d without a setter outside their package", len(declared), len(flagged))
	var missing []string
	for knob := range flagged {
		if _, ok := knobAllowlist[knob]; !ok {
			missing = append(missing, knob)
		}
	}
	sort.Strings(missing)
	for _, knob := range missing {
		t.Errorf("knob %s has no setter outside the tests and its own package: set it where a program needs it, or delete it", knob)
	}
	for knob := range knobAllowlist {
		switch {
		case !declared[knob]:
			t.Errorf("knobAllowlist names %s, which is not a knob: drop the entry", knob)
		case !flagged[knob]:
			t.Errorf("knobAllowlist names %s, which now has a setter: drop the entry", knob)
		}
	}
}

// isKnobType reports whether a type of this name holds knobs.
func isKnobType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")
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

// gatedFuncs lists p's package-level functions and the methods declared on
// its named types, exported or not.
func gatedFuncs(p *types.Package) []*types.Func {
	var out []*types.Func
	for _, name := range p.Scope().Names() {
		switch obj := p.Scope().Lookup(name).(type) {
		case *types.Func:
			out = append(out, obj)
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				out = append(out, named.Method(i))
			}
		}
	}
	return out
}

// exportedVars lists p's exported package-level vars.
func exportedVars(p *types.Package) []*types.Var {
	var out []*types.Var
	for _, name := range p.Scope().Names() {
		if v, ok := p.Scope().Lookup(name).(*types.Var); ok && v.Exported() {
			out = append(out, v)
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

// checkedPkg is one module package, type-checked from its non-test files.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// module is the module's type universe: its packages in dependency order,
// each keyed by import path in checked, and the importer of the standard
// library's export data.
type module struct {
	std     types.Importer
	pkgs    []checkedPkg
	checked map[string]*types.Package
}

// checkModule type-checks the module's packages from source in dependency
// order, so one package's uses and another's declarations are the same
// objects.
func checkModule(t *testing.T) *module {
	t.Helper()
	pkgs, exports := goList(t)
	fset := token.NewFileSet()
	m := &module{checked: map[string]*types.Package{}}
	m.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.checked[path]; ok {
			return p, nil
		}
		return m.std.Import(path)
	})
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
		m.checked[lp.path] = p
		m.pkgs = append(m.pkgs, checkedPkg{pkg: p, files: files, info: info})
	}
	return m
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
