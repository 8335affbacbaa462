package emdsearch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerAllowlist names the exported declarations that may stand
// without a caller in a non-test file, each with the reason it stays.
// Keys are "pkg.Name" or "pkg.Type.Method", pkg being the import path
// of the declaring package.
var callerAllowlist = map[string]string{
	"emdsearch.EMD":                                  "the package overview and README promise the one-shot exact distance; cmd/emddist solves many pairs on one compiled emd.Dist instead",
	"emdsearch.EMDWithFlow":                          "the one-shot exact distance with its flow, promised beside EMD; cmd/emddist solves many pairs on one compiled emd.Dist instead",
	"emdsearch.Engine.Rank":                          "the paper's getNext (Figure 12): the incremental ranking a caller pulls from",
	"emdsearch.ShardSet.Promote":                     "the only way to make a follower primary; the replica chaos tests drive it",
	"emdsearch/internal/emd.CostMatrix.IsMetric":     "oracle that tests in vptree, emd, core and flowred call",
	"emdsearch/internal/core.Reduction.Groups":       "oracle that tests in core and flowred call",
	"emdsearch/internal/transport.CheckFeasible":     "oracle that tests in transport and emd call; CheckOptimal in transport's tests builds on it",
	"emdsearch/internal/persist.WAL.SwapFileForTest": "the fault hook of the root package's WAL tests",
}

// optionTypes are the configuration structs whose exported fields
// TestEveryOptionIsSet checks, as "pkg.Type" with pkg the import path
// of the declaring package.
var optionTypes = []string{
	"emdsearch.Options",
	"emdsearch.ShardSetOptions",
	"emdsearch.GateOptions",
	"emdsearch/internal/admission.Config",
	"emdsearch/internal/shardset.Config",
	"emdsearch/internal/shardset.Backoff",
}

// optionAllowlist names the checked fields that may stand without a
// non-test writer, each with the reason it stays. Keys are
// "pkg.Type.Field".
var optionAllowlist = map[string]string{
	"emdsearch.Options.FilterBlockSize":   "bench/price.go reads it to lay out the columns it prices; it leaves with ROADMAP N16, which needs a bench/ edit",
	"emdsearch.Options.IndexKind":         "has no effect since the VP-tree left the engine; bench/trace.go:162 still sets it through a nested selector (offSpec.Opts.IndexKind = IndexOff), and it leaves with that bench/ edit (ROADMAP N16)",
	"emdsearch.Options.AutoCascade":       "the auto-planner that ROADMAP N3 re-prices and folds, with Hierarchy, into one plan option",
	"emdsearch.ShardSetOptions.ShardHook": "cmd/emdserve/server_test.go:35,338 injects shard faults through it from outside the package, where an unexported seam is out of reach",
}

// interfaceMethods are method names a program calls through a standard
// library interface rather than through a selector of its own.
var interfaceMethods = map[string]string{
	"Unwrap": "satisfies errors.Is and errors.As, which call it through an interface",
}

// goFile is one parsed non-test file: its package's import path and
// the import path each of its import names resolves to.
type goFile struct {
	fset    *token.FileSet
	pkg     string
	imports map[string]string
	file    *ast.File
}

// exportedDecl is one checked declaration.
type exportedDecl struct {
	key    string // "pkg.Name" or "pkg.Type.Method"
	pkg    string
	name   string // the referenced name: the declared name or the method name
	method bool
	pos    string // file:line
}

// TestEveryExportHasACaller fails on every exported declaration of the
// root and internal/ packages that no non-test file in the repository
// references. A qualified reference pkg.Name counts when pkg resolves to
// the declaring package; an unqualified one counts inside the declaring
// package; a method counts when any non-test file selects its name. The
// declaring identifier and a method's receiver type are not references,
// so a dead type is not kept alive by its own methods.
func TestEveryExportHasACaller(t *testing.T) {
	files := parseRepo(t)

	var decls []exportedDecl
	for _, f := range files {
		if f.file.Name.Name == "main" || !(f.pkg == "emdsearch" || strings.HasPrefix(f.pkg, "emdsearch/internal/")) {
			continue
		}
		decls = append(decls, exportedDecls(f)...)
	}

	refs := map[string]bool{}     // "pkg.Name"
	selected := map[string]bool{} // every selector name an import does not qualify
	for _, f := range files {
		collectRefs(f, refs, selected)
	}

	declared := map[string]bool{}
	declaredMethods := map[string]bool{}
	var missing []string
	for _, d := range decls {
		declared[d.key] = true
		if d.method {
			declaredMethods[d.name] = true
		}
		used := refs[d.pkg+"."+d.name]
		if d.method {
			used = selected[d.name] || interfaceMethods[d.name] != ""
		}
		if reason, ok := callerAllowlist[d.key]; ok {
			if used {
				t.Errorf("allowlist entry %s has a caller now; delete the entry (%q)", d.key, reason)
			}
			continue
		}
		if !used {
			missing = append(missing, d.pos+": "+d.key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller in a non-test file: delete it, move it into a _test.go file, or allowlist it with a reason", m)
	}
	for key := range callerAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s is not declared any more; delete the entry", key)
		}
	}
	for name := range interfaceMethods {
		if !declaredMethods[name] {
			t.Errorf("interface method %s is not declared any more; delete the entry", name)
		}
		if selected[name] {
			t.Errorf("interface method %s is selected by a non-test file; delete the entry", name)
		}
	}
}

// TestEveryOptionIsSet fails on every exported field of the
// optionTypes that no non-test file in the repository sets (see
// optionWrites). An option nothing sets is a configuration no caller
// runs.
func TestEveryOptionIsSet(t *testing.T) {
	files := parseRepo(t)

	checked := map[string]bool{} // optionTypes entry → declared
	for _, typ := range optionTypes {
		checked[typ] = false
	}
	fields := map[string]string{} // "pkg.Type.Field" → file:line
	for _, f := range files {
		for _, decl := range f.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				typ := f.pkg + "." + ts.Name.Name
				st, ok := ts.Type.(*ast.StructType)
				if _, want := checked[typ]; !want || !ok {
					continue
				}
				checked[typ] = true
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							pos := f.fset.Position(id.Pos())
							fields[typ+"."+id.Name] = filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line)
						}
					}
				}
			}
		}
	}
	for typ, declared := range checked {
		if !declared {
			t.Errorf("option type %s is not declared any more; delete the entry", typ)
		}
	}

	written := optionWrites(files, checked)
	var missing []string
	for key, pos := range fields {
		set := written[key]
		if reason, ok := optionAllowlist[key]; ok {
			if set {
				t.Errorf("allowlist entry %s is set by a non-test file now; delete the entry (%q)", key, reason)
			}
			continue
		}
		if !set {
			missing = append(missing, pos+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is set by no non-test file: delete the option, give it a caller, or allowlist it with a reason", m)
	}
	for key := range optionAllowlist {
		if fields[key] == "" {
			t.Errorf("allowlist entry %s is not a checked field any more; delete the entry", key)
		}
	}
}

// TestOptionWritesTyped pins how optionWrites attributes a write to a
// type: by a composite literal key, or by an assignment x.F = … where
// x is declared in the same function with the type.
func TestOptionWritesTyped(t *testing.T) {
	const src = `package p

type T struct{ Key, Param, Ptr, Closure, Var, Lit, Addr, Other, Method, Own, Untyped int }

type U struct{ Other, Method int }

var _ = T{Key: 1}

func param(t T, p *T) { t.Param, p.Ptr = 1, 1 }

func local() {
	var t T
	t.Var = 1
	l := T{}
	l.Lit = 1
	a := &T{}
	a.Addr = 1
	u := U{}
	u.Other = 1
	f := func(x *T) { x.Closure = 1 }
	_ = f
}

func (u *U) set() { u.Method = 1 }

func (t *T) withDefaults() { t.Own = 1 }

func untyped(v struct{ Untyped int }) {
	v.Untyped = 1
	w := v
	w.Untyped = 1
}
`
	af, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	written := optionWrites([]*goFile{{pkg: "p", imports: map[string]string{}, file: af}}, map[string]bool{"p.T": true})
	for _, c := range []struct {
		field string
		want  bool
	}{
		{"Key", true},      // composite literal key
		{"Param", true},    // parameter of type T
		{"Ptr", true},      // parameter of type *T
		{"Closure", true},  // parameter of a function literal
		{"Var", true},      // var t T
		{"Lit", true},      // := from a T{…} literal
		{"Addr", true},     // := from a &T{…} literal
		{"Other", false},   // a same-named field of another type
		{"Method", false},  // another type's method setting its own field
		{"Own", false},     // T's own method (its defaulting) sets nothing
		{"Untyped", false}, // a variable not declared with type T
	} {
		if got := written["p.T."+c.field]; got != c.want {
			t.Errorf("T.%s written = %v, want %v", c.field, got, c.want)
		}
	}
	if !written["p.U.Other"] || !written["p.U.Method"] {
		t.Errorf("writes to U's fields not attributed to U: %v", written)
	}
}

// optionWrites returns the "pkg.Type.Field" keys the files set: a key
// in a composite literal of the type (Options{F: …} in the declaring
// package, emdsearch.Options{F: …} elsewhere), or an assignment x.F = …
// where x is declared in the same function with the type, as a
// parameter or receiver, as a var, or by := from a T{…} or &T{…}
// literal. A method of a checked type itself (its defaulting) sets
// nothing.
func optionWrites(files []*goFile, checked map[string]bool) map[string]bool {
	written := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.file.Decls {
			vars := map[string]string{} // variable → "pkg.Type"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv != nil {
					if recv := receiverType(fn.Recv.List[0].Type); recv != nil {
						if _, own := checked[f.pkg+"."+recv.Name]; own {
							continue
						}
					}
				}
				vars = typedVars(f, fn)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := f.typeName(n.Type)
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[typ+"."+id.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
								written[vars[x.Name]+"."+sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// typedVars maps each variable fn declares with a named type — as a
// parameter or receiver, as a var, or by := from a T{…} or &T{…}
// literal — to "pkg.Type".
func typedVars(f *goFile, fn *ast.FuncDecl) map[string]string {
	vars := map[string]string{}
	declare := func(id *ast.Ident, typ string) {
		if typ != "" {
			vars[id.Name] = typ
		}
	}
	params := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				declare(id, f.typeName(field.Type))
			}
		}
	}
	params(fn.Recv)
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			params(n.Params)
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if n.Type != nil {
					declare(id, f.typeName(n.Type))
				} else if i < len(n.Values) {
					declare(id, f.literalType(n.Values[i]))
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						declare(id, f.literalType(n.Rhs[i]))
					}
				}
			}
		}
		return true
	})
	return vars
}

// typeName resolves a type expression T, *T or pkg.T to "pkg.Type",
// "" for any other type.
func (f *goFile) typeName(x ast.Expr) string {
	switch t := x.(type) {
	case *ast.StarExpr:
		return f.typeName(t.X)
	case *ast.Ident:
		return f.pkg + "." + t.Name
	case *ast.SelectorExpr:
		if q, ok := t.X.(*ast.Ident); ok && f.imports[q.Name] != "" {
			return f.imports[q.Name] + "." + t.Sel.Name
		}
	}
	return ""
}

// literalType is the type of a T{…} or &T{…} literal, "" for any other
// expression.
func (f *goFile) literalType(x ast.Expr) string {
	if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
		x = u.X
	}
	if lit, ok := x.(*ast.CompositeLit); ok && lit.Type != nil {
		return f.typeName(lit.Type)
	}
	return ""
}

// parseRepo parses every non-test Go file under the repository root,
// skipping testdata and dot-directories. Each directory's import path
// comes from the nearest go.mod above it.
func parseRepo(t *testing.T) []*goFile {
	t.Helper()
	fset := token.NewFileSet()
	modules := map[string]string{} // module root dir → module path
	var files []*goFile
	err := filepath.WalkDir(".", func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := de.Name()
		if de.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
				modules[path] = modulePath(string(mod))
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := &goFile{fset: fset, pkg: importPath(modules, filepath.Dir(path)), imports: map[string]string{}, file: af}
		for _, spec := range af.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			f.imports[local] = p
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// modulePath returns the path a go.mod file declares.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// importPath derives dir's import path from the nearest module root at
// or above it.
func importPath(modules map[string]string, dir string) string {
	for root := dir; ; root = filepath.Dir(root) {
		if mod, ok := modules[root]; ok {
			rel, _ := filepath.Rel(root, dir)
			if rel == "." {
				return mod
			}
			return mod + "/" + filepath.ToSlash(rel)
		}
		if root == "." {
			return ""
		}
	}
}

// exportedDecls lists f's exported top-level funcs, types, consts and
// vars, and the exported methods of its exported types.
func exportedDecls(f *goFile) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, key, name string, method bool) {
		pos := f.fset.Position(id.Pos())
		out = append(out, exportedDecl{key: key, pkg: f.pkg, name: name, method: method,
			pos: filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line)})
	}
	for _, decl := range f.file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(d.Name, f.pkg+"."+d.Name.Name, d.Name.Name, false)
				continue
			}
			if recv := receiverType(d.Recv.List[0].Type); recv != nil && recv.IsExported() {
				add(d.Name, f.pkg+"."+recv.Name+"."+d.Name.Name, d.Name.Name, true)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, f.pkg+"."+s.Name.Name, s.Name.Name, false)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(id, f.pkg+"."+id.Name, id.Name, false)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType is the named type of a method receiver: T, *T, T[P] or
// *T[P].
func receiverType(x ast.Expr) *ast.Ident {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	id, _ := x.(*ast.Ident)
	return id
}

// collectRefs records f's references: refs gets "pkg.Name" for each
// selector whose qualifier is one of f's imports, and f's own package
// path with every other identifier, selector names included; selected
// gets the name of every other selector. Declaring identifiers and receivers are not
// references.
func collectRefs(f *goFile, refs, selected map[string]bool) {
	skip := map[*ast.Ident]bool{}
	skipAll := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				skip[id] = true
			}
			return true
		})
	}
	ast.Inspect(f.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv != nil {
				skipAll(n.Recv)
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := f.imports[x.Name]; ok {
					// A package-qualified name (admission.Config) is
					// no use of a method that shares the name.
					refs[p+"."+n.Sel.Name] = true
					return true
				}
			}
			selected[n.Sel.Name] = true
		}
		return true
	})
	ast.Inspect(f.file, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] {
			refs[f.pkg+"."+id.Name] = true
		}
		return true
	})
}
