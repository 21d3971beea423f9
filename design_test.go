package multiscalar_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A designRule is one thing DESIGN.md says the tree states once, as a
// check over the type-checked packages: check returns "file:line: what"
// for each place that states it a second time. The checks resolve every
// name through the type checker, so an import renamed or aliased does
// not hide a second statement, and a comment or string naming one is
// not one.
type designRule struct {
	name  string
	cite  string // where DESIGN.md states the rule
	check func(tr *tree) []string
}

// DESIGN.md's sections, as the rules cite them.
const (
	inventory  = `§1 "System inventory" (the facade; msbench picks sections by registry name)`
	baseline   = `§4 "Scalar baseline"`
	unitData   = `§4 "The unit reads the machine as data"`
	onePool    = `§4 "One job shape, one key, one store, one pool"`
	opcode     = `§4 "What an opcode is"`
	taskIs     = `§4 "What a task is"`
	holds      = `§4 "What a component holds"`
	eventsOnly = `§4 "a per-cycle pipeline view rendered from the event stream"`
	collector  = `§4 "The runtime's own collector pace"`
)

var designRules = []designRule{
	{"serve and litmus do not reach bench", onePool,
		importRule("multiscalar/internal/bench", "multiscalar/internal/serve", "multiscalar/internal/litmus")},
	{"pu does not reach core", unitData,
		importRule("multiscalar/internal/core", "multiscalar/internal/pu")},
	{"one op table", opcode, opRule},
	{"one pool", onePool, fanOutRule},
	{"pu.Ext is a struct", unitData, extRule},
	{"no msbench flag per section", inventory, sectionFlagRule},
	{"the runtime's own collector pace", collector, collectorRule},

	// The name rules: a declaration under one of these names, or a use
	// of cfg's return liveness outside cfg, restates what the section
	// says once.
	{"one state walk", holds, forbid(
		names{list: []string{"SaveState", "LoadState"}},
		names{list: []string{"Encoder", "Decoder"}, in: "multiscalar/internal/snapshot"})},
	{"one machine", baseline, forbid(
		names{list: []string{"NewScalar", "scalarExt", "WantsMultiscalar", "KindScalar", "MachineSel", "ForgetPrograms"}},
		names{list: []string{"NewMachine"}, except: "multiscalar/internal/interp"})},
	{"one watcher", eventsOnly, watcherRule},
	{"one return liveness", taskIs, forbid(
		names{list: []string{"LiveAtReturn", "ReturnLiveOut", "retMin"}, except: "multiscalar/internal/cfg", private: true})},
	{"no adapter between unit and machine", unitData, forbid(
		names{list: []string{"msExt"}})},
	{"no deleted facade entry point", inventory, forbid(
		names{list: []string{"Lint", "Optimize", "NewJobEngine", "Workloads", "WithMaxCycles"}, in: "multiscalar"})},
}

// TestDesignRules holds the tree to every design rule.
func TestDesignRules(t *testing.T) {
	t.Parallel()
	tr := repoTree(t)
	for _, r := range designRules {
		for _, f := range r.check(tr) {
			t.Errorf("%s: breaks %q (DESIGN.md %s)", f, r.name, r.cite)
		}
	}
}

// TestDesignRulesCatchPlants plants a module that breaks every rule and
// holds each rule to naming exactly the lines marked `// want "rule"`,
// among them three a text search misses: an op switch under an aliased
// isa import, a map keyed by isa.Op, and a named `go worker()`. Beside
// them sit the statements each rule allows (the op table and the µop
// kinds keyed by op, the semantics' switch, cfg's jal/jalr switch,
// interp.NewMachine, cfg's own return liveness), which must pass.
func TestDesignRulesCatchPlants(t *testing.T) {
	tr, err := loadTree(plant(t, designPlants))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	marker := regexp.MustCompile(`// want "([^"]+)"`)
	for name, src := range designPlants {
		for i, line := range strings.Split(src, "\n") {
			if m := marker.FindStringSubmatch(line); m != nil {
				want[m[1]] = append(want[m[1]], fmt.Sprintf("%s:%d", name, i+1))
			}
		}
	}
	for _, r := range designRules {
		var got []string
		for _, f := range r.check(tr) {
			got = append(got, strings.Join(strings.SplitN(f, ":", 3)[:2], ":"))
		}
		want[r.name] = sorted(want[r.name])
		if len(want[r.name]) == 0 {
			t.Errorf("%q: nothing planted to break it", r.name)
		}
		if strings.Join(got, " ") != strings.Join(want[r.name], " ") {
			t.Errorf("%q names %v, want %v", r.name, got, want[r.name])
		}
		delete(want, r.name)
	}
	for name := range want {
		t.Errorf("plant marked for %q, which is no rule", name)
	}
}

// importRule fails an import, in any of the from packages, of target or
// of a package that reaches target through its own imports.
func importRule(target string, from ...string) func(*tree) []string {
	return func(tr *tree) []string {
		var out []string
		for _, p := range from {
			for _, f := range tr.files[p] {
				for _, spec := range f.Imports {
					q, _ := strconv.Unquote(spec.Path.Value)
					switch {
					case q == target:
						out = append(out, tr.at(spec.Pos(), "imports %s", target))
					case tr.reaches(q, target):
						out = append(out, tr.at(spec.Pos(), "imports %s, which reaches %s", q, target))
					}
				}
			}
		}
		return sorted(out)
	}
}

// reaches reports whether package from imports to, directly or not.
func (tr *tree) reaches(from, to string) bool {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package) bool
	walk = func(p *types.Package) bool {
		if p == nil || seen[p] {
			return false
		}
		seen[p] = true
		for _, q := range p.Imports() {
			if q.Path() == to || walk(q) {
				return true
			}
		}
		return false
	}
	return walk(tr.pkgs[from])
}

// Where an isa.Op may select behaviour: the op table and interp's table
// of µop kinds may key a literal by one, the semantics may switch on one,
// and cfg's call summaries may switch on jal and jalr alone, which are
// analysis policy rather than opcode facts.
var (
	opTables      = []string{"internal/isa/op.go", "internal/interp/uop.go"}
	opSemantics   = "internal/interp/value.go"
	callSummaries = []string{"internal/cfg/live.go", "internal/cfg/region.go"}
)

// opRule fails a switch on an isa.Op, a map type keyed by one and a
// composite literal keyed by one, outside the places allowed above.
func opRule(tr *tree) []string {
	isa := tr.pkgs["multiscalar/internal/isa"]
	if isa == nil {
		return []string{"internal/isa:0: no op table"}
	}
	op := isa.Scope().Lookup("Op").Type()
	isOp := func(e ast.Expr) bool { return types.Identical(tr.info.TypeOf(e), op) }
	call := []constant.Value{
		isa.Scope().Lookup("OpJal").(*types.Const).Val(),
		isa.Scope().Lookup("OpJalr").(*types.Const).Val(),
	}
	// callsOnly reports whether every case of an op switch is jal or jalr.
	callsOnly := func(s *ast.SwitchStmt) bool {
		for _, c := range s.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				v := tr.info.Types[e].Value
				if v == nil || !slices.ContainsFunc(call, func(c constant.Value) bool { return constant.Compare(v, token.EQL, c) }) {
					return false
				}
			}
		}
		return true
	}
	var out []string
	for _, p := range tr.paths {
		for _, f := range tr.files[p] {
			file := tr.rel(f.Pos())
			if file == opSemantics {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SwitchStmt:
					if n.Tag != nil && isOp(n.Tag) && !(slices.Contains(callSummaries, file) && callsOnly(n)) {
						out = append(out, tr.at(n.Pos(), "a switch on an isa.Op"))
					}
				case *ast.MapType:
					if isOp(n.Key) {
						out = append(out, tr.at(n.Pos(), "a map keyed by isa.Op"))
					}
				case *ast.CompositeLit:
					if _, ok := tr.info.TypeOf(n).Underlying().(*types.Struct); ok || slices.Contains(opTables, file) {
						return true // a field name is no key; the tables are the allowed ones
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok && isOp(kv.Key) {
							out = append(out, tr.at(kv.Pos(), "a literal keyed by isa.Op"))
						}
					}
				}
				return true
			})
		}
	}
	return sorted(out)
}

// fanOutRule fails a go statement, a sync.WaitGroup or a semaphore
// channel in the bench harness or msbench: their fan-out is job.RunJobs
// over the process's one budget of runners.
func fanOutRule(tr *tree) []string {
	var out []string
	for _, p := range []string{"multiscalar/internal/bench", "multiscalar/cmd/msbench"} {
		for _, f := range tr.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					out = append(out, tr.at(n.Pos(), "a go statement"))
				case *ast.Ident:
					if obj, ok := tr.info.Uses[n].(*types.TypeName); ok && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
						out = append(out, tr.at(n.Pos(), "a sync.WaitGroup"))
					}
				case *ast.CallExpr:
					if b, ok := tr.info.Uses[identOf(n.Fun)].(*types.Builtin); ok && b.Name() == "make" {
						if ch, ok := tr.info.TypeOf(n.Args[0]).Underlying().(*types.Chan); ok {
							if s, ok := ch.Elem().Underlying().(*types.Struct); ok && s.NumFields() == 0 {
								out = append(out, tr.at(n.Pos(), "a chan struct{}"))
							}
						}
					}
				}
				return true
			})
		}
	}
	return sorted(out)
}

// extRule fails a pu.Ext that is an interface: the unit's view of the
// machine is a struct of the state it reads.
func extRule(tr *tree) []string {
	pu := tr.pkgs["multiscalar/internal/pu"]
	if pu == nil {
		return nil
	}
	if ext, ok := pu.Scope().Lookup("Ext").(*types.TypeName); ok && types.IsInterface(ext.Type()) {
		return []string{tr.at(ext.Pos(), "pu.Ext is an interface")}
	}
	return nil
}

// watcherRule fails a core.Config field or method Trace, or a
// declaration of the per-cycle writer's or a second recorder's names:
// a run is watched through its event stream alone.
func watcherRule(tr *tree) []string {
	out := forbid(names{list: []string{"traceCycle", "actGlyphs", "TraceMetaFor"}})(tr)
	if core := tr.pkgs["multiscalar/internal/core"]; core != nil {
		if cfg, ok := core.Scope().Lookup("Config").(*types.TypeName); ok {
			if obj, _, _ := types.LookupFieldOrMethod(cfg.Type(), true, core, "Trace"); obj != nil {
				out = append(out, tr.at(obj.Pos(), "core.Config has Trace"))
			}
		}
	}
	return sorted(out)
}

// sectionFlagRule fails an msbench flag named after a section of bench's
// registry, or after its name less the trailing digits (table for
// table3): a section is picked by -sections or -all alone.
func sectionFlagRule(tr *tree) []string {
	reg := map[string]bool{}
	bench := tr.pkgs["multiscalar/internal/bench"]
	if bench == nil {
		return []string{"internal/bench:0: no section registry"}
	}
	for _, f := range tr.files["multiscalar/internal/bench"] {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Values) != 1 || tr.info.Defs[spec.Names[0]] != bench.Scope().Lookup("sections") {
				return true
			}
			for _, e := range spec.Values[0].(*ast.CompositeLit).Elts {
				if row, ok := e.(*ast.CompositeLit); ok && len(row.Elts) > 0 {
					if v := tr.info.Types[row.Elts[0]].Value; v != nil && v.Kind() == constant.String {
						s := constant.StringVal(v)
						reg[s], reg[strings.TrimRight(s, "0123456789")] = true, true
					}
				}
			}
			return false
		})
	}
	if len(reg) == 0 {
		// The registry changed shape: read it anew, or this rule checks nothing.
		return []string{"internal/bench:0: no section names read from the sections registry"}
	}
	var out []string
	for _, f := range tr.files["multiscalar/cmd/msbench"] {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := tr.info.Uses[identOf(call.Fun)].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			if v := tr.info.Types[call.Args[0]].Value; v != nil && v.Kind() == constant.String && reg[constant.StringVal(v)] {
				out = append(out, tr.at(call.Pos(), "flag -%s names a registry section", constant.StringVal(v)))
			}
			return true
		})
	}
	return sorted(out)
}

// collectorRule fails every use, anywhere in the tree, of
// runtime/debug's SetGCPercent or SetMemoryLimit: processes collect at
// the runtime's default pace.
func collectorRule(tr *tree) []string {
	var out []string
	for _, p := range tr.paths {
		for _, f := range tr.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := tr.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "runtime/debug" &&
						(fn.Name() == "SetGCPercent" || fn.Name() == "SetMemoryLimit") {
						out = append(out, tr.at(id.Pos(), "uses debug.%s", fn.Name()))
					}
				}
				return true
			})
		}
	}
	return sorted(out)
}

// names is one row of a name rule: declarations named in list, counted
// in package in only when in is set, and in every package but except.
// With private set, except's own objects of those names are not to be
// used outside it either.
type names struct {
	list       []string
	in, except string
	private    bool
}

// forbid fails every declaration, and every use outside a private
// package, that the rows name.
func forbid(rows ...names) func(*tree) []string {
	return func(tr *tree) []string {
		var out []string
		for _, p := range tr.paths {
			for _, f := range tr.files[p] {
				ast.Inspect(f, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					for _, r := range rows {
						if !slices.Contains(r.list, id.Name) || r.in != "" && p != r.in || p == r.except {
							continue
						}
						if tr.info.Defs[id] != nil {
							out = append(out, tr.at(id.Pos(), "declares %s", id.Name))
						} else if obj := tr.info.Uses[id]; r.private && obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == r.except {
							out = append(out, tr.at(id.Pos(), "uses %s.%s", obj.Pkg().Name(), id.Name))
						}
					}
					return true
				})
			}
		}
		return sorted(out)
	}
}

// identOf is the identifier a call's function expression names: x for
// x(...) and sel for pkg.sel(...) or v.sel(...).
func identOf(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// rel is the slash-separated path, below the tree's root, of the file
// holding pos.
func (tr *tree) rel(pos token.Pos) string {
	name := tr.fset.Position(pos).Filename
	if r, err := filepath.Rel(tr.root, name); err == nil {
		name = r
	}
	return filepath.ToSlash(name)
}

// at formats a finding at pos as "file:line: what".
func (tr *tree) at(pos token.Pos, format string, args ...any) string {
	return fmt.Sprintf("%s:%d: %s", tr.rel(pos), tr.fset.Position(pos).Line, fmt.Sprintf(format, args...))
}

// sorted orders findings by file and line, one per line.
func sorted(out []string) []string {
	key := func(f string) (string, int) {
		parts := strings.SplitN(f, ":", 3)
		line, _ := strconv.Atoi(parts[1])
		return parts[0], line
	}
	slices.SortFunc(out, func(a, b string) int {
		fa, la := key(a)
		fb, lb := key(b)
		if c := strings.Compare(fa, fb); c != 0 {
			return c
		}
		return la - lb
	})
	return slices.CompactFunc(out, func(a, b string) bool {
		fa, la := key(a)
		fb, lb := key(b)
		return fa == fb && la == lb
	})
}

// designPlants is a module that breaks every design rule once or more,
// each breach marked `// want "rule"`, beside what the rules allow.
var designPlants = map[string]string{
	"go.mod": "module multiscalar\n\ngo 1.22\n",
	"multiscalar.go": `package multiscalar

func Workloads() []string { return nil } // want "no deleted facade entry point"

func WithoutLint() {}
`,
	"internal/isa/op.go": `package isa

type Op uint8

const (
	OpAdd Op = iota
	OpJal
	OpJalr
)

var names = [...]string{OpAdd: "add", OpJal: "jal", OpJalr: "jalr"}

func (o Op) String() string { return names[o] }
`,
	"internal/isa/instr.go": `package isa

func (o Op) Calls() bool {
	switch o { // want "one op table"
	case OpJal, OpJalr:
		return true
	}
	return false
}
`,
	"internal/interp/value.go": `package interp

import "multiscalar/internal/isa"

func Exec(op isa.Op) int {
	switch op {
	case isa.OpAdd:
		return 1
	}
	return 0
}

func NewMachine() {}
`,
	"internal/interp/uop.go": `package interp

import "multiscalar/internal/isa"

var opKinds = [...]int{isa.OpAdd: 1}

func kind(op isa.Op) int {
	switch op { // want "one op table"
	case isa.OpAdd:
		return opKinds[op]
	}
	return 0
}
`,
	"internal/cfg/live.go": `package cfg

import "multiscalar/internal/isa"

func calls(op isa.Op) bool {
	switch op {
	case isa.OpJal, isa.OpJalr:
		return true
	}
	switch op { // want "one op table"
	case isa.OpJal, isa.OpAdd:
		return true
	}
	return false
}

var LiveAtReturn = 1

func retMin() int { return LiveAtReturn }
`,
	"internal/pu/pu.go": `package pu

import (
	"multiscalar/internal/core" // want "pu does not reach core"
	o "multiscalar/internal/isa"
)

type Ext interface{ Send() } // want "pu.Ext is a struct"

var lat map[o.Op]int // want "one op table"

var fu = [...]int{o.OpAdd: 1} // want "one op table"

func Issue(op o.Op, n int) int {
	switch op { // want "one op table"
	case o.OpAdd:
		return lat[op] + fu[0]
	}
	switch n {
	case 1:
		return core.Units
	}
	return 0
}
`,
	"internal/core/core.go": `package core

var Units int

type Config struct {
	Units int
	Trace bool // want "one watcher"
}

func traceCycle() {} // want "one watcher"

type msExt struct{} // want "no adapter between unit and machine"

var _ msExt

func NewMachine() {} // want "one machine"

type M struct{}

func (M) SaveState() {} // want "one state walk"
`,
	"internal/snapshot/snapshot.go": `package snapshot

type Encoder struct{} // want "one state walk"
`,
	"internal/sample/sample.go": `package sample

import c "multiscalar/internal/cfg"

var LiveAtReturn = 1 // want "one return liveness"

var abi = c.LiveAtReturn // want "one return liveness"
`,
	"internal/bench/bench.go": `package bench

import s "sync"

type section struct {
	name string
	all  bool
}

var sections = []section{{"table3", true}, {"mix", true}}

func worker() {}

func Run() int {
	go worker() // want "one pool"
	var wg s.WaitGroup // want "one pool"
	wg.Wait()
	return len(sections)
}
`,
	"internal/job/job.go": `package job

import (
	d "runtime/debug"

	_ "multiscalar/internal/bench"
)

var limit = d.SetMemoryLimit // want "the runtime's own collector pace"

func Stack() []byte { return d.Stack() }
`,
	"internal/serve/serve.go": `package serve

import _ "multiscalar/internal/bench" // want "serve and litmus do not reach bench"
`,
	"internal/litmus/litmus.go": `package litmus

import _ "multiscalar/internal/job" // want "serve and litmus do not reach bench"
`,
	"cmd/msbench/main.go": `package main

import (
	f "flag"
	"runtime/debug"

	"multiscalar/internal/bench"
)

func main() {
	debug.SetGCPercent(400) // want "the runtime's own collector pace"
	f.Bool("table", false, "") // want "no msbench flag per section"
	f.Bool("quick", false, "")
	done := make(chan struct{}) // want "one pool"
	close(done)
	f.Parse()
	bench.Run()
}
`,
}
