package lsdf_test

// The design's rules. Each deletion that made the facility one thing
// (one hash loop, one replica table, one event engine, one front door,
// one migration planner, one placement record, one object-store I/O
// path) is guarded here, as a predicate on the module's syntax trees,
// so that a plain `go test ./...` fails when one of them comes back.
// Predicates look at declarations, calls, types, literals and imports,
// never at comments. Each rule also runs against planted violations:
// small sources that each break it, which it must report.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the module's import path (go.mod).
const modulePath = "repro"

// srcFile is one parsed Go file.
type srcFile struct {
	path string // slash-separated, relative to the module root
	test bool
	f    *ast.File
}

// srcTree is the module as the rules see it: its Go files and its
// directories.
type srcTree struct {
	fset  *token.FileSet
	files []srcFile
	dirs  map[string]bool
}

// loadModule parses every Go file under the module root, skipping
// testdata and hidden directories as the go tool does.
func loadModule(t *testing.T) *srcTree {
	t.Helper()
	tr := &srcTree{fset: token.NewFileSet(), dirs: map[string]bool{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			tr.dirs[p] = true
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		return tr.add(p, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// plantedTree is a tree of one source, at path p, alone.
func plantedTree(t *testing.T, p, src string) *srcTree {
	t.Helper()
	tr := &srcTree{fset: token.NewFileSet(), dirs: map[string]bool{}}
	for d := path.Dir(p); d != "."; d = path.Dir(d) {
		tr.dirs[d] = true
	}
	if err := tr.add(p, src); err != nil {
		t.Fatal(err)
	}
	return tr
}

// add parses src, or the file at p when src is nil.
func (tr *srcTree) add(p string, src any) error {
	f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	tr.files = append(tr.files, srcFile{path: p, test: strings.HasSuffix(p, "_test.go"), f: f})
	return nil
}

// where formats a position as file:line.
func (tr *srcTree) where(pos token.Pos) string {
	p := tr.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// nonTest returns the non-test files that keep returns true for.
func (tr *srcTree) nonTest(keep func(path string) bool) []srcFile {
	var out []srcFile
	for _, sf := range tr.files {
		if !sf.test && keep(sf.path) {
			out = append(out, sf)
		}
	}
	return out
}

func anywhere(string) bool { return true }

// under reports whether p lies in dir or below it.
func under(dir string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, dir+"/") }
}

// directlyIn reports whether p is a file of dir itself, not of a subdirectory.
func directlyIn(dir string) func(string) bool {
	return func(p string) bool { return path.Dir(p) == dir }
}

func internalOrCmd(p string) bool { return under("internal")(p) || under("cmd")(p) }

// importNames returns the names a file refers to an import path by:
// its alias, or the path's last element; "." for a dot import.
func importNames(f *ast.File, importPath string) []string {
	var names []string
	for _, is := range f.Imports {
		if p, _ := strconv.Unquote(is.Path.Value); p != importPath {
			continue
		}
		switch {
		case is.Name == nil:
			names = append(names, path.Base(importPath))
		case is.Name.Name != "_":
			names = append(names, is.Name.Name)
		}
	}
	return names
}

// pkgRefs reports each selector in f that names a member of the
// package at importPath for which match is true. The package counts
// under each name the file imports it by, so an alias does not hide a
// reference, and under any name ending in its own (what a text search
// for "sha256.New" finds); a dot import counts bare names.
func (tr *srcTree) pkgRefs(sf srcFile, importPath string, match func(member string) bool) []string {
	names, base := importNames(sf.f, importPath), path.Base(importPath)
	var out []string
	ast.Inspect(sf.f, func(n ast.Node) bool {
		var id *ast.Ident
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && (slices.Contains(names, x.Name) || strings.HasSuffix(x.Name, base)) {
				id = n.Sel
			}
		case *ast.Ident:
			if slices.Contains(names, ".") {
				id = n
			}
		}
		if id != nil && match(id.Name) {
			out = append(out, fmt.Sprintf("%s: %s.%s", tr.where(id.Pos()), base, id.Name))
		}
		return true
	})
	return out
}

// mentions reports each identifier, declared or used, and each string
// literal in f that contains one of subs: what a text search finds,
// but for comments.
func (tr *srcTree) mentions(sf srcFile, subs ...string) []string {
	var out []string
	ast.Inspect(sf.f, func(n ast.Node) bool {
		var text string
		switch n := n.(type) {
		case *ast.Ident:
			text = n.Name
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				text = n.Value
			}
		}
		for _, sub := range subs {
			if text != "" && strings.Contains(text, sub) {
				out = append(out, fmt.Sprintf("%s: %s", tr.where(n.Pos()), text))
			}
		}
		return true
	})
	return out
}

// mapTypes reports each map type in f whose source form
// (map[string]int64, say) begins with prefix.
func (tr *srcTree) mapTypes(sf srcFile, prefix string) []string {
	var out []string
	ast.Inspect(sf.f, func(n ast.Node) bool {
		if m, ok := n.(*ast.MapType); ok {
			if typ := types.ExprString(m); strings.HasPrefix(typ, prefix) {
				out = append(out, fmt.Sprintf("%s: %s", tr.where(m.Pos()), typ))
			}
		}
		return true
	})
	return out
}

// imports reports f's import of importPath, if any.
func (tr *srcTree) imports(sf srcFile, importPath string) []string {
	var out []string
	for _, is := range sf.f.Imports {
		if p, _ := strconv.Unquote(is.Path.Value); p == importPath {
			out = append(out, fmt.Sprintf("%s: import %q", tr.where(is.Pos()), p))
		}
	}
	return out
}

// missing reports dir if it exists.
func (tr *srcTree) missing(dir string) []string {
	if tr.dirs[dir] {
		return []string{dir + " exists"}
	}
	return nil
}

// oneHashLoop: adal.Transfer is the loop that moves hashed bytes and
// adal/chain.go the one file that constructs the hash; a copy, tier
// move or scrub that hashes for itself decides for itself what
// "verified" means. One-shot sha256.Sum256 calls (the gateway
// experiment's buffer checks) are not transfers and are allowed.
func oneHashLoop(tr *srcTree) []string {
	var out []string
	for _, sf := range tr.nonTest(internalOrCmd) {
		if sf.path != "internal/adal/chain.go" {
			out = append(out, tr.pkgRefs(sf, "crypto/sha256", func(m string) bool { return m == "New" })...)
		}
	}
	return out
}

// oneReplicaTable: the metadata store's replica rows are the catalogue:
// journaled, recovered, and the one place a copy's state and the
// digest it is checked against live. A second path -> site table
// (a map[string]map[string]… outside internal/metadata) is a second
// catalogue, which a restart forgets or which drifts from the journal.
func oneReplicaTable(tr *srcTree) []string {
	var out []string
	for _, sf := range tr.nonTest(internalOrCmd) {
		if !under("internal/metadata")(sf.path) {
			out = append(out, tr.mapTypes(sf, "map[string]map[string]")...)
		}
	}
	return out
}

// oneEventEngine: the rule engine is the one subscriber that turns
// metadata events into actions, workflow triggers included, and its
// cascade bound rides the event (metadata.Event.Depth); a second
// trigger engine, or a depth count keyed by dataset, would keep a
// second bound that events reaching it another way slip past. The
// store delivers on the mutator's goroutine once the journal has
// acked, and asynchrony lives in the rule engine's executor: a queued
// bus (AsyncEvents, QueueLen, a pump goroutine) would again hand
// subscribers mutations the journal never acknowledged. /s3 is an
// adal.FSBackend like every other mount but /hdfs, so
// internal/objectstore does not exist.
func oneEventEngine(tr *srcTree) []string {
	out := tr.missing("internal/objectstore")
	for _, sf := range tr.nonTest(anywhere) {
		out = append(out, tr.mentions(sf, "NewOrchestrator", "RunRecord", "AsyncEvents")...)
	}
	for _, sf := range tr.nonTest(directlyIn("internal/rules")) {
		out = append(out, tr.mapTypes(sf, "map[string]int")...)
		ast.Inspect(sf.f, func(n ast.Node) bool {
			var names []*ast.Ident
			var typ ast.Expr
			switch n := n.(type) {
			case *ast.Field:
				names, typ = n.Names, n.Type
			case *ast.ValueSpec:
				names, typ = n.Names, n.Type
			}
			if _, isMap := typ.(*ast.MapType); isMap {
				for _, id := range names {
					if strings.Contains(id.Name, "depth") {
						out = append(out, tr.where(id.Pos())+": "+id.Name+" map")
					}
				}
			}
			return true
		})
	}
	for _, sf := range tr.nonTest(directlyIn("internal/metadata")) {
		out = append(out, tr.mentions(sf, "QueueLen")...)
		for _, d := range sf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "pump" && recvType(fd) == "bus" {
				out = append(out, tr.where(fd.Pos())+": (*bus).pump")
			}
		}
	}
	return out
}

// oneCLIPath: the journal under the state directory's wal/ is the
// catalogue and the gateway is the one path to it: a CLI that dumps or
// loads its own metadata, keeps a job file or stores objects itself
// has grown a second implementation of a verb. Test files count too.
func oneCLIPath(tr *srcTree) []string {
	var out []string
	for _, sf := range tr.files {
		if !under("cmd/lsdfctl")(sf.path) && !under("cmd/databrowser")(sf.path) {
			continue
		}
		out = append(out, tr.mentions(sf, "metadata.json", "jobs.json")...)
		out = append(out, tr.pkgRefs(sf, modulePath+"/internal/metadata", func(m string) bool { return strings.HasPrefix(m, "NewStore") })...)
		out = append(out, tr.imports(sf, modulePath+"/internal/ingest")...)
	}
	return out
}

// oneFrontDoor: the gateway's authenticated /v1 API is the
// DataBrowser's API: databrowser serve runs it over a state directory.
// A second handler over the same Layer and Meta (internal/databrowser),
// the structural probe of the cache's counters it read, or a listing
// fact every Stat fills for it (tier placement, replica sites, cache
// tier) would bring the unauthenticated twin back.
func oneFrontDoor(tr *srcTree) []string {
	out := tr.missing("internal/databrowser")
	for _, sf := range tr.nonTest(anywhere) {
		out = append(out, tr.mentions(sf, "CacheCounters", "cacheReporter")...)
	}
	for _, sf := range tr.nonTest(directlyIn("internal/adal")) {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "FileInfo" {
				return true
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				fld, ok := n.(*ast.Field)
				if !ok {
					return true
				}
				names := fld.Names
				if id, embedded := fld.Type.(*ast.Ident); embedded && len(names) == 0 {
					names = []*ast.Ident{id}
				}
				for _, id := range names {
					if slices.Contains([]string{"Placement", "Replicas", "Cached"}, id.Name) {
						out = append(out, tr.where(id.Pos())+": FileInfo."+id.Name)
					}
				}
				return true
			})
			return false
		})
	}
	return out
}

// oneMigrationPlanner: tiering.Policy.Plan is the one migration
// planner: the hsm model calls it, so a sort in hsm is a second planner
// coming back. The tier's cold store is an adal.FSBackend; the
// real-time tape store it replaced (tape.NewFS, FSStats) must not return.
func oneMigrationPlanner(tr *srcTree) []string {
	var out []string
	for _, sf := range tr.nonTest(anywhere) {
		out = append(out, tr.pkgRefs(sf, modulePath+"/internal/tape", func(m string) bool { return strings.HasPrefix(m, "NewFS") })...)
		out = append(out, tr.mentions(sf, "FSStats")...)
	}
	for _, sf := range tr.nonTest(directlyIn("internal/hsm")) {
		out = append(out, tr.imports(sf, "sort")...)
	}
	return out
}

// onePlacementRecord: placement lives in the metadata store's typed
// rows; the stub magic, its decoder and the untyped note must not come
// back.
func onePlacementRecord(tr *srcTree) []string {
	var out []string
	for _, sf := range tr.nonTest(anywhere) {
		out = append(out, tr.mentions(sf, "LSDF-STUB", "decodeStub", "NotePlacement")...)
	}
	return out
}

// objectIOThroughDurafs: adal's object store opens files through
// durafs, whose commit rule the crash sweeps prove; a direct os.Open,
// os.OpenFile or os.Create (or CreateTemp) beside it would write or
// read bytes outside that rule.
func objectIOThroughDurafs(tr *srcTree) []string {
	var out []string
	for _, sf := range tr.nonTest(directlyIn("internal/adal")) {
		out = append(out, tr.pkgRefs(sf, "os", func(m string) bool {
			return m == "Open" || strings.HasPrefix(m, "OpenFile") || strings.HasPrefix(m, "Create")
		})...)
	}
	return out
}

// recvType is the name of a method's receiver type, "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// reachableAPI: every exported function and method declared in
// non-test internal/ is named by some non-test code (bench/, cmd/ and
// examples/ count) other than its own declaration; API that only tests
// call is code the facility carries for nothing. A function is named
// by its package's files or through its package's import; a method is
// named by any selector of its name, or by an interface that lists it,
// since without types the receiver of a selector is unknown. The
// exceptions are in apiExempt and interfaceMethods.
func reachableAPI(tr *srcTree) []string {
	funcs := map[string]bool{}   // "dir.Name" of each function named
	methods := map[string]bool{} // each method name named
	for _, sf := range tr.nonTest(anywhere) {
		dir := path.Dir(sf.path)
		pkgDir := map[string]string{} // import name -> module directory
		for _, is := range sf.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if rel, ok := strings.CutPrefix(p, modulePath+"/"); ok {
				for _, name := range importNames(sf.f, p) {
					pkgDir[name] = rel
				}
			}
		}
		for _, d := range sf.f.Decls {
			var self *ast.Ident // the declared name, and what names it recursively
			selfFunc, selfRecv := "", ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fd.Name
				if fd.Recv == nil {
					selfFunc = dir + "." + fd.Name.Name
				} else if names := fd.Recv.List[0].Names; len(names) == 1 {
					selfRecv = names[0].Name
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					x, _ := n.X.(*ast.Ident)
					if x != nil && pkgDir[x.Name] != "" {
						funcs[pkgDir[x.Name]+"."+n.Sel.Name] = true
					} else if x == nil || x.Name != selfRecv || n.Sel.Name != self.Name {
						methods[n.Sel.Name] = true
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							methods[id.Name] = true
						}
					}
				case *ast.Ident:
					if n != self && dir+"."+n.Name != selfFunc {
						funcs[dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}
	var out []string
	for _, sf := range tr.nonTest(under("internal")) {
		dir := path.Dir(sf.path)
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name, recv := fd.Name.Name, recvType(fd)
			key := dir + "." + name
			if recv != "" {
				key = dir + "." + recv + "." + name
			}
			if apiAllowed(dir, key, recv, name) {
				continue
			}
			if (recv == "" && !funcs[dir+"."+name]) || (recv != "" && !methods[name]) {
				out = append(out, tr.where(fd.Pos())+": "+strings.TrimPrefix(key, "internal/")+" is named by no non-test code")
			}
		}
	}
	sort.Strings(out)
	return out
}

// apiExempt is what reachableAPI asks no non-test caller of, each with
// its reason. A key is a package directory, a function
// ("dir.Func"), a method ("dir.Type.Method") or every method of a type
// ("dir.Type.*").
var apiExempt = map[string]string{
	"internal/sim":     modelReason,
	"internal/netsim":  modelReason,
	"internal/storage": modelReason,
	"internal/cloud":   modelReason,
	"internal/hsm":     modelReason,
	"internal/tape":    modelReason,

	"internal/facility.ClusterModel.Calibrate": modelReason,

	"internal/dfs.Cluster.KillNode":       hookReason,
	"internal/dfs.Cluster.ReviveNode":     hookReason,
	"internal/dfs.Cluster.CorruptReplica": hookReason,
	"internal/dfs.Cluster.BlockIDsOn":     hookReason,
	"internal/metadata/durafs.NewFault":   hookReason,
	"internal/metadata/durafs.Fault.*":    hookReason,
	"internal/metadata.Store.Checkpoint":  hookReason,
	"internal/gateway.Server.Draining":    hookReason,

	"internal/gateway/client.IsNotFound":     clientReason,
	"internal/gateway/client.IsDenied":       clientReason,
	"internal/gateway/client.IsOverload":     clientReason,
	"internal/gateway/client.Client.Metrics": clientReason,
	"internal/gateway/client.Client.Health":  clientReason,

	"internal/dfs.Cluster.Scrub":         "an at-rest verifier: the facility is to run one scrub pass over the data it holds (ROADMAP item 27)",
	"internal/replication.Engine.Verify": "an at-rest verifier: the facility is to run one scrub pass over the data it holds (ROADMAP item 27)",

	"internal/replication.NewWAN":      "the paced WAN is to route reads around a slow site (ROADMAP item 22)",
	"internal/replication.WAN.SetLink": "the paced WAN is to route reads around a slow site (ROADMAP item 22)",

	"internal/metadata.Store.Import": "Export's inverse: the round-trip tests prove a dump complete by importing it",
}

const (
	modelReason  = "a discrete-event model; whether it stays is decided against its live twin (ROADMAP item 10)"
	hookReason   = "a fault or test hook that tests in other packages call"
	clientReason = "the gateway client's status predicates and probes, which the gateway's and the CLIs' tests assert through"
)

// interfaceMethods are method names a standard-library interface calls,
// so no selector in the module need name them.
var interfaceMethods = map[string]string{
	"Unwrap":        "errors.Is/As and http.ResponseController unwrap through it",
	"WriteTo":       "io.WriterTo: io.Copy calls it",
	"MarshalText":   "encoding.TextMarshaler: encoding/json calls it",
	"UnmarshalText": "encoding.TextUnmarshaler: encoding/json calls it",
	"Less":          "sort.Interface, which container/heap embeds",
	"Swap":          "sort.Interface, which container/heap embeds",
}

// apiAllowed reports whether an exported func or method is exempt from
// reachableAPI.
func apiAllowed(dir, key, recv, name string) bool {
	if apiExempt[dir] != "" || apiExempt[key] != "" {
		return true
	}
	return recv != "" && (apiExempt[dir+"."+recv+".*"] != "" || interfaceMethods[name] != "")
}

// designRules are the rules, each with planted violations: sources
// that each break the rule one way.
var designRules = []struct {
	name    string
	check   func(*srcTree) []string
	planted map[string]string // path -> source
}{
	{"oneHashLoop", oneHashLoop, map[string]string{
		"internal/replication/copy.go": "package replication\nimport h \"crypto/sha256\"\nvar _ = h.New()",
		"cmd/lsdfctl/verify.go":        "package main\nimport \"crypto/sha256\"\nvar _ = sha256.New",
	}},
	{"oneReplicaTable", oneReplicaTable, map[string]string{
		"internal/replication/sites.go": "package replication\ntype catalog struct{ sites map[string]map[string]bool }",
	}},
	{"oneEventEngine", oneEventEngine, map[string]string{
		"internal/objectstore/store.go": "package objectstore",
		"internal/workflow/orch.go":     "package workflow\ntype RunRecord struct{}",
		"bench/events.go":               "package main\nvar _ = metadata.Options{AsyncEvents: true}",
		"internal/rules/count.go":       "package rules\nvar fired map[string]int64",
		"internal/rules/depth.go":       "package rules\ntype engine struct{ depth map[uint64]int }",
		"internal/metadata/bus.go":      "package metadata\ntype bus struct{}\nfunc (b *bus) pump() {}",
		"internal/metadata/stats.go":    "package metadata\nfunc (s *Store) QueueLen() int { return 0 }",
	}},
	{"oneCLIPath", oneCLIPath, map[string]string{
		"cmd/lsdfctl/dump.go":          "package main\nconst dump = \"state/metadata.json\"",
		"cmd/databrowser/jobs_test.go": "package main\nvar jobs = \"jobs.json\"",
		"cmd/lsdfctl/store.go":         "package main\nimport m \"repro/internal/metadata\"\nvar _ = m.NewStore",
		"cmd/databrowser/ingest.go":    "package main\nimport _ \"repro/internal/ingest\"",
	}},
	{"oneFrontDoor", oneFrontDoor, map[string]string{
		"internal/databrowser/server.go": "package databrowser",
		"internal/gateway/probe.go":      "package gateway\nfunc probe(c interface{ CacheCounters() int }) int { return c.CacheCounters() }",
		"cmd/databrowser/list.go":        "package main\ntype cacheReporter interface{}",
		"internal/adal/layer.go":         "package adal\ntype FileInfo struct {\n\tPath   string\n\tCached bool\n}",
	}},
	{"oneMigrationPlanner", oneMigrationPlanner, map[string]string{
		"internal/hsm/plan.go":      "package hsm\nimport \"sort\"\nvar _ = sort.Ints",
		"internal/tiering/cold.go":  "package tiering\nimport tp \"repro/internal/tape\"\nvar _ = tp.NewFS",
		"internal/tiering/stats.go": "package tiering\nfunc (t *Tier) FSStats() {}",
	}},
	{"onePlacementRecord", onePlacementRecord, map[string]string{
		"internal/tiering/stub.go":   "package tiering\nconst magic = \"LSDF-STUB v1\"",
		"internal/tiering/decode.go": "package tiering\nfunc decodeStub() {}",
		"internal/tiering/note.go":   "package tiering\nfunc note(s *metadata.Store) { s.NotePlacement() }",
	}},
	{"objectIOThroughDurafs", objectIOThroughDurafs, map[string]string{
		"internal/adal/create.go": "package adal\nimport \"os\"\nvar _, _ = os.Create(\"x\")",
		"internal/adal/open.go":   "package adal\nimport sys \"os\"\nvar _, _ = sys.Open(\"x\")",
		"internal/adal/append.go": "package adal\nimport \"os\"\nvar _ = os.OpenFile",
	}},
	{"reachableAPI", reachableAPI, map[string]string{
		"internal/rules/rules.go": "package rules\nfunc Used() {}\nfunc Unused() { Used() }",
		"internal/adal/layer.go":  "package adal\ntype Layer struct{}\nfunc (l *Layer) Unmount() { l.Unmount() }",
	}},
}

// TestDesignRules runs every rule over the module, then over each of
// its planted violations alone, which it must report.
func TestDesignRules(t *testing.T) {
	tr := loadModule(t)
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr) {
				t.Errorf("broken at %s", v)
			}
			for p, src := range r.planted {
				if len(r.check(plantedTree(t, p, src))) == 0 {
					t.Errorf("passed its planted violation %s", p)
				}
			}
		})
	}
}
