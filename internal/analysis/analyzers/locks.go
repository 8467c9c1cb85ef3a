package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"crowdplanner/internal/analysis"
)

// Locks holds the serving core's lock contracts. It scans every function
// body once into a source-ordered list of calls and lock events, answers
// "what is held here" from that list, and runs three checks on the one
// model:
//
//   - I/O under a lock (the WAL discipline, DESIGN §8): no store append/fsync,
//     file I/O, or network call may be reachable while a sync.Mutex or
//     sync.RWMutex is held. Reachability is module-wide over the call
//     graph, so a locked region in core that reaches a store append through
//     a traj helper is reported at the region with the whole chain
//     (core.IngestTrips → traj.ingest → store append/IO (Log.Append)). A
//     call to a store-layer interface method is I/O by its declared
//     contract, which is how calls through store.Store are caught without
//     knowing the backend. The store packages themselves are exempt:
//     serializing file writes under the store's own mutex is their job.
//     The sanctioned shape is the walBatch pattern — collect records under
//     the lock, flush after unlocking.
//
//   - Acquisition order: an edge A → B means some execution acquires B
//     while holding A, directly or through statically resolved calls. Any
//     cycle is a potential deadlock (two goroutines walking it from
//     different ends block each other forever), reported once with the
//     witness path of every edge; re-acquiring a held mutex is a
//     self-deadlock, since Go mutexes are not reentrant. DESIGN §6
//     documents the order (mu before poolMu); this check turns that
//     sentence into a build failure.
//
//   - Guarded fields: a struct field annotated
//
//     //cplint:guardedby <mutex>
//
//     may only be read while that mutex is held and only written under the
//     exclusive lock (a write under RLock lets concurrent readers observe a
//     torn update). The spec is a sibling field (`mu`), a same-package
//     `Type.field`, or a package-level variable. A helper that is only
//     ever called with the mutex held inherits it: each function's
//     held-on-entry set is the intersection, over its static call sites, of
//     what the caller holds there (go statements contribute nothing), and
//     a lock-free access in a helper names an example lock-free call chain.
//     Function literals inherit the held set at their definition point
//     (sort.Slice comparators under a lock), except go-spawned ones.
//     Freshly constructed objects are exempt (constructors), composite
//     literal keys are initialization, and a "guarded by" prose comment
//     without the directive is itself a finding.
//
// The held-region model is a linear source-order scan: a region opens at
// Lock/RLock and closes at the next plain unlock of the same mutex; a
// deferred unlock holds to function end. An early unlock in one branch
// therefore ends the region for the code after it, and an early return
// between Lock and Unlock over-approximates what is held. Mutex identity
// aggregates by declared field (every core.System.mu is one lock, see
// mutexKey). Calls through interfaces or function values are not expanded,
// and calls inside nested function literals are not part of the enclosing
// function's regions: their execution time is not tied to it.
var Locks = &analysis.Analyzer{
	Name:      "locks",
	Doc:       "lock discipline over one held-region model: no store/file/network I/O reachable under a sync mutex, an acyclic acquisition order, and //cplint:guardedby fields accessed only under their mutex",
	RunModule: runLocks,
}

// lockStep is one call in a function body outside nested function literals:
// a Lock/RLock/Unlock/RUnlock on a mutex (mutex != "") or a call to any
// other named function.
type lockStep struct {
	pos      token.Pos
	call     *ast.CallExpr
	callee   *types.Func
	mutex    string // canonical mutex identity (see mutexKey)
	recv     string // rendered receiver expression, e.g. "s.mu", for messages
	acquire  bool
	read     bool // RLock/RUnlock: a shared (read) region
	deferred bool
	spawned  bool // the call of a go statement
}

// hold is one held mutex: the first acquire of its open region, and whether
// any acquire in the region is exclusive.
type hold struct {
	pos       token.Pos
	recv      string
	exclusive bool
}

// heldSet maps canonical mutex keys to their holds.
type heldSet map[string]hold

// advance moves h past s. Deferred acquires and releases run at function
// exit, so they neither open nor close a region.
func (h heldSet) advance(s lockStep) {
	switch {
	case s.mutex == "" || s.deferred:
	case s.acquire:
		cur, ok := h[s.mutex]
		if !ok {
			cur = hold{pos: s.pos, recv: s.recv}
		}
		cur.exclusive = cur.exclusive || !s.read
		h[s.mutex] = cur
	default:
		delete(h, s.mutex)
	}
}

// heldAt answers "what is held at pos" for a scanned body.
func heldAt(steps []lockStep, pos token.Pos) heldSet {
	h := heldSet{}
	for _, s := range steps {
		if s.pos >= pos {
			break
		}
		h.advance(s)
	}
	return h
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func (h heldSet) union(o heldSet) heldSet {
	if len(o) == 0 {
		return h
	}
	out := o.clone()
	for k, v := range h {
		v.exclusive = v.exclusive || out[k].exclusive
		out[k] = v
	}
	return out
}

func (h heldSet) intersect(o heldSet) heldSet {
	out := heldSet{}
	for k, v := range h {
		if w, ok := o[k]; ok {
			v.exclusive = v.exclusive && w.exclusive
			out[k] = v
		}
	}
	return out
}

func (h heldSet) same(o heldSet) bool {
	if len(h) != len(o) {
		return false
	}
	for k, v := range h {
		if w, ok := o[k]; !ok || w.exclusive != v.exclusive {
			return false
		}
	}
	return true
}

// scanLocks lists the calls in body outside nested function literals, in
// source order. Deferred calls are recorded at their textual position.
func scanLocks(info *types.Info, body ast.Node) []lockStep {
	var steps []lockStep
	var goCall *ast.CallExpr
	var walk func(root ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false // literal interiors do not run with the region
			case *ast.DeferStmt:
				walk(x.Call, true)
				return false
			case *ast.GoStmt:
				goCall = x.Call
			case *ast.CallExpr:
				f := calleeFunc(info, x)
				if f == nil {
					return true
				}
				s := lockStep{pos: x.Pos(), call: x, callee: f, deferred: deferred, spawned: x == goCall}
				if kind, isLock := mutexOp(f); isLock {
					sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s.mutex, s.recv = mutexKey(info, sel.X), exprString(sel.X)
					s.acquire = kind == "Lock" || kind == "RLock"
					s.read = kind == "RLock" || kind == "RUnlock"
				}
				steps = append(steps, s)
			}
			return true
		})
	}
	walk(body, false)
	return steps
}

// mutexOp classifies f as a sync.Mutex/RWMutex lock-family method.
func mutexOp(f *types.Func) (string, bool) {
	switch {
	case isMethodOn(f, "sync", "Mutex", "Lock", "Unlock"),
		isMethodOn(f, "sync", "RWMutex", "Lock", "Unlock", "RLock", "RUnlock"):
		return f.Name(), true
	}
	return "", false
}

// mutexKey names the mutex a lock-family call operates on, canonically
// enough to match acquisition sites across functions and packages. Field
// mutexes become "pkg.Type.field" — one identity per declared field, the
// standard static-lock-analysis aggregation (all instances of core.System.mu
// share an identity) — package-level mutexes "pkg.var", embedded mutexes
// "pkg.Type.(embedded)". Receivers that cannot be canonicalized (locals,
// complex expressions) fall back to a position-qualified rendering, which
// still matches textually identical sites within one function.
func mutexKey(info *types.Info, recv ast.Expr) string {
	recv = ast.Unparen(recv)
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		// s.mu, p.owner.mu: qualify the field by its owner's named type.
		if tv, ok := info.Types[x.X]; ok {
			if named := namedOf(tv.Type); named != nil {
				return qualifiedType(named) + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name() // package-level mutex
			}
			// Embedded mutex reached through the enclosing value (w.Lock()
			// where w's type embeds sync.Mutex): identify by the named type.
			if named := namedOf(v.Type()); named != nil && !isSyncMutexType(named) {
				return qualifiedType(named) + ".(embedded)"
			}
			// Function-local mutex: position-qualified so distinct locals in
			// different functions never alias.
			return fmt.Sprintf("local %s@%d", v.Name(), v.Pos())
		}
	}
	return exprString(recv)
}

// namedOf strips pointers and returns the named type beneath t, nil if none.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func qualifiedType(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

func isSyncMutexType(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockEdge is one acquisition-order edge with its first witness.
type lockEdge struct {
	from, to string
	heldPos  token.Pos // where from was acquired
	acqPos   token.Pos // the call/acquire site establishing to
	chain    string    // rendered path from the region to the acquire of to
}

// lockModel is one run's shared state.
type lockModel struct {
	pass  *analysis.ModulePass
	g     *analysis.CallGraph
	steps map[*types.Func][]lockStep
	// may maps each function to the mutexes it may acquire, directly (nil)
	// or through the callee that continues the chain.
	may   map[*types.Func]map[string]*types.Func
	edges map[[2]string]lockEdge
	// sites records, per call site, what its function holds there and
	// whether it is the call of a go statement; absent means neither.
	sites map[*ast.CallExpr]siteState
	// entry is each function's held-on-entry set.
	entry map[*types.Func]heldSet
}

type siteState struct {
	held    heldSet
	spawned bool
}

func runLocks(pass *analysis.ModulePass) {
	g := pass.Graph
	m := &lockModel{
		pass:  pass,
		g:     g,
		steps: make(map[*types.Func][]lockStep),
		may:   make(map[*types.Func]map[string]*types.Func),
		edges: make(map[[2]string]lockEdge),
		sites: make(map[*ast.CallExpr]siteState),
		entry: make(map[*types.Func]heldSet),
	}
	for _, n := range g.Nodes() {
		m.steps[n.Func] = scanLocks(n.Pkg.Info, n.Decl.Body)
	}
	m.mayAcquire()
	// Module-wide I/O reachability. Direct hits use the declared callee even
	// at dynamic sites (a store.Store interface call appends by contract);
	// traversal stops at the store layer — its interior I/O is its own
	// business, callers are charged at the boundary call.
	io := g.Reach(
		func(site analysis.CallSite) string { return directIO(site.Callee) },
		func(f *types.Func) bool { return f.Pkg() == nil || internalSegment(f.Pkg().Path()) != storePkgSegment },
	)
	for _, n := range g.Nodes() {
		m.walk(n, io)
	}
	m.reportCycles()

	guarded := m.collectGuardedFields()
	m.entryFixpoint()
	for _, n := range g.Nodes() {
		m.checkAccesses(n, guarded)
	}
	m.reportMisplacedGuardedby()
}

// mayAcquire computes, to fixpoint, every mutex each function may acquire
// directly or through statically resolved calls, keeping the first chain
// discovered.
func (m *lockModel) mayAcquire() {
	nodes := m.g.Nodes()
	set := func(f *types.Func, key string, via *types.Func) bool {
		if _, seen := m.may[f][key]; seen {
			return false
		}
		if m.may[f] == nil {
			m.may[f] = make(map[string]*types.Func)
		}
		m.may[f][key] = via
		return true
	}
	for _, n := range nodes {
		for _, s := range m.steps[n.Func] {
			if s.acquire {
				set(n.Func, s.mutex, nil)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, s := range m.steps[n.Func] {
				callee := m.g.Node(s.callee)
				if s.mutex != "" || callee == nil {
					continue
				}
				for key := range m.may[callee.Func] {
					changed = set(n.Func, key, callee.Func) || changed
				}
			}
		}
	}
}

// acqChain renders the call chain from f to its acquisition of key.
func (m *lockModel) acqChain(f *types.Func, key string) string {
	out := analysis.FuncDisplay(f)
	for i := 0; i < 64; i++ { // chain length bound; fixpoint chains are finite
		via := m.may[f][key]
		if via == nil {
			return out
		}
		f = via
		out += " → " + analysis.FuncDisplay(f)
	}
	return out
}

func (m *lockModel) addEdge(e lockEdge) {
	k := [2]string{e.from, e.to}
	if _, ok := m.edges[k]; !ok {
		m.edges[k] = e
	}
}

// walk runs one function's steps in source order with a running held set:
// acquisition-order edges at every acquire and every call whose callee may
// acquire, I/O findings at every call under a lock, and the held set at
// each call site for the held-on-entry fixpoint.
func (m *lockModel) walk(n *analysis.CallNode, io *analysis.ReachSet) {
	checkIO := internalSegment(n.Pkg.Path) != storePkgSegment
	fn := analysis.FuncDisplay(n.Func)
	held := heldSet{}
	for _, s := range m.steps[n.Func] {
		if s.mutex != "" {
			if s.acquire {
				for _, k := range sortedKeys(held) {
					m.addEdge(lockEdge{from: k, to: s.mutex, heldPos: held[k].pos, acqPos: s.pos, chain: fn})
				}
			}
			held.advance(s)
			continue
		}
		if s.spawned || len(held) > 0 {
			m.sites[s.call] = siteState{held: held.clone(), spawned: s.spawned}
		}
		if len(held) == 0 {
			continue
		}
		if callee := m.g.Node(s.callee); callee != nil {
			for _, key := range sortedKeys(m.may[callee.Func]) {
				chain := fn + " → " + m.acqChain(callee.Func, key)
				for _, k := range sortedKeys(held) {
					m.addEdge(lockEdge{from: k, to: key, heldPos: held[k].pos, acqPos: s.pos, chain: chain})
				}
			}
		}
		if !checkIO {
			continue
		}
		desc := directIO(s.callee)
		if desc == "" {
			desc = io.Chain(s.callee)
		}
		if desc == "" {
			continue
		}
		for _, h := range held {
			m.pass.Reportf(s.pos,
				"%s reachable while %s is locked (acquired at line %d): appends never run under core locks — buffer under the lock, flush after unlocking, or annotate why this cannot block",
				desc, h.recv, m.pass.Position(h.pos).Line)
		}
	}
}

// storePkgSegment scopes "calls into the storage layer". Matched by the path
// segment after internal/ so the real tree and fixtures both resolve.
const storePkgSegment = "store"

// directIO describes why a call is blocking I/O, or returns "".
func directIO(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	path := f.Pkg().Path()
	name := f.Name()
	sig, _ := f.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	// Storage-layer appends, snapshots, and loads: any method of a type
	// declared in the store package tree whose name says it touches the log.
	if internalSegment(path) == storePkgSegment && isMethod {
		if strings.HasPrefix(name, "Append") ||
			name == "Snapshot" || name == "Sync" || name == "Load" || name == "Close" {
			return "store append/IO (" + recvTypeName(sig) + "." + name + ")"
		}
		return ""
	}
	switch path {
	case "os":
		if !isMethod {
			switch name {
			case "OpenFile", "Open", "Create", "WriteFile", "ReadFile",
				"Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll":
				return "file I/O (os." + name + ")"
			}
			return ""
		}
		if isMethodOn(f, "os", "File",
			"Write", "WriteString", "WriteAt", "Read", "ReadAt", "Sync", "Close") {
			return "file I/O (os.File." + name + ")"
		}
	case "net":
		if isPkgFunc(f, "net", "Dial", "DialTimeout", "Listen", "ListenPacket") {
			return "network I/O (net." + name + ")"
		}
	case "net/http":
		if isPkgFunc(f, "net/http", "Get", "Post", "PostForm", "Head") ||
			isMethodOn(f, "net/http", "Client", "Do", "Get", "Post", "PostForm", "Head") {
			return "network I/O (http." + name + ")"
		}
	}
	return ""
}

// recvTypeName names a method's receiver type for diagnostics.
func recvTypeName(sig *types.Signature) string {
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return sig.Recv().Type().String()
}

// reportCycles finds cycles in the acquisition-order graph and reports each
// once, listing the witness path of every edge on it. Which cycles exist does
// not depend on the walk order; the framework sorts the findings.
func (m *lockModel) reportCycles() {
	pass := m.pass
	adj := make(map[string][]string)
	for k := range m.edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	nodes := sortedKeys(adj)

	// Self-deadlocks first: A → A means a region holding A reaches another
	// acquire of A, and Go mutexes are not reentrant.
	for _, n := range nodes {
		if e, ok := m.edges[[2]string{n, n}]; ok {
			pass.Reportf(e.acqPos,
				"potential self-deadlock: %s may be re-acquired while already held (held since line %d; re-acquired via %s) — Go mutexes are not reentrant",
				n, pass.Position(e.heldPos).Line, e.chain)
		}
	}

	// Multi-mutex cycles: DFS from each node in sorted order, walking only
	// nodes above the root, so each cycle is found once from its smallest
	// node.
	var path []string
	onPath := make(map[string]bool)
	var dfs func(n, root string)
	dfs = func(n, root string) {
		path = append(path, n)
		onPath[n] = true
		for _, next := range adj[n] {
			switch {
			case next == n: // self-loops reported above
			case next == root:
				m.reportCycle(append(path[:len(path):len(path)], root))
			case !onPath[next] && next > root:
				dfs(next, root)
			}
		}
		onPath[n] = false
		path = path[:len(path)-1]
	}
	for _, n := range nodes {
		dfs(n, n)
	}
}

// reportCycle emits one finding for the cycle described by nodes (first ==
// last).
func (m *lockModel) reportCycle(nodes []string) {
	pass := m.pass
	var parts []string
	for i := 0; i+1 < len(nodes); i++ {
		e := m.edges[[2]string{nodes[i], nodes[i+1]}]
		p := pass.Position(e.acqPos)
		parts = append(parts, fmt.Sprintf("%s acquires %s at %s:%d while holding %s (line %d)",
			e.chain, e.to, p.Filename[strings.LastIndexByte(p.Filename, '/')+1:], p.Line,
			e.from, pass.Position(e.heldPos).Line))
	}
	pass.Reportf(m.edges[[2]string{nodes[0], nodes[1]}].acqPos,
		"potential deadlock: lock-order cycle %s — %s; two goroutines entering from different ends block forever (pick one global order and document it)",
		strings.Join(nodes, " → "), strings.Join(parts, "; "))
}

const guardedbyDirective = "cplint:guardedby"

// guardedField is one field carrying a guardedby contract.
type guardedField struct {
	fieldKey string // "pkg.Type.field", for messages
	mutexKey string // canonical identity of the required mutex (mutexKey scheme)
	mutexStr string // the directive's spelling, for messages
}

// guardedAccess is one read or write of a guarded field.
type guardedAccess struct {
	sel   *ast.SelectorExpr
	gf    *guardedField
	write bool
}

// siteHeld is what a call site passes to its callee: nothing for a go
// statement (the goroutine runs after the region may have closed), else
// what the caller holds there plus its own held-on-entry set. ok is false
// while no entry point reaches the caller.
func (m *lockModel) siteHeld(c analysis.Caller) (h heldSet, ok bool) {
	entry, ok := m.entry[c.Func]
	if !ok {
		return nil, false
	}
	if st := m.sites[c.Site.Call]; !st.spawned {
		return st.held.union(entry), true
	}
	return heldSet{}, true
}

// entryFixpoint computes the held-on-entry sets as the greatest fixpoint of
// "the intersection of what every static call site passes in". Functions
// with no analyzed caller are entry points and start at ∅; every other
// function starts at ⊤ (absent from entry: reached from nowhere yet) and
// only shrinks as reached call sites are intersected in. Recursion reached
// only under a lock therefore keeps the lock, and a function still at ⊤ at
// the end is reached from no entry point.
func (m *lockModel) entryFixpoint() {
	for _, n := range m.g.Nodes() {
		if len(m.g.Callers(n.Func)) == 0 {
			m.entry[n.Func] = heldSet{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range m.g.Nodes() {
			var next heldSet
			reached := false
			for _, c := range m.g.Callers(n.Func) {
				if h, ok := m.siteHeld(c); ok && reached {
					next = next.intersect(h)
				} else if ok {
					next, reached = h, true
				}
			}
			if old, was := m.entry[n.Func]; reached && (!was || !next.same(old)) {
				m.entry[n.Func] = next
				changed = true
			}
		}
	}
}

// checkAccesses verifies every guarded-field access in n against what is
// held there: local regions plus the function's held-on-entry set.
// Function literals are checked with the held set at their definition
// point (go-spawned literals: nothing) plus their own regions.
func (m *lockModel) checkAccesses(n *analysis.CallNode, guarded map[*types.Var]*guardedField) {
	entry, reached := m.entry[n.Func]
	if !reached {
		return
	}
	info := n.Pkg.Info
	steps := m.steps[n.Func]
	fresh := newFreshLocals(info, n.Decl.Body)
	check := func(body *ast.BlockStmt, steps []lockStep, outer heldSet) {
		for _, a := range guardedAccessesIn(info, body, guarded) {
			if !fresh.has(a.sel.X) {
				m.reportAccess(n.Func, a, heldAt(steps, a.sel.Pos()).union(outer))
			}
		}
	}
	check(n.Decl.Body, steps, entry)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		var lit *ast.FuncLit
		spawned := false
		switch x := node.(type) {
		case *ast.GoStmt:
			lit, spawned = ast.Unparen(x.Call.Fun).(*ast.FuncLit)
		case *ast.FuncLit:
			lit = x
		}
		if lit == nil {
			return true
		}
		outer := heldSet{}
		if !spawned {
			outer = heldAt(steps, lit.Pos()).union(entry)
		}
		check(lit.Body, scanLocks(info, lit.Body), outer)
		return !spawned // the GoStmt branch already consumed its literal
	})
}

func (m *lockModel) reportAccess(f *types.Func, a guardedAccess, held heldSet) {
	verb := "read"
	if a.write {
		verb = "write to"
	}
	if h, ok := held[a.gf.mutexKey]; ok {
		if a.write && !h.exclusive {
			m.pass.Reportf(a.sel.Pos(),
				"%s %s while holding %s only for reading (RLock): writes need the exclusive lock — concurrent readers can observe the torn update",
				verb, a.gf.fieldKey, a.gf.mutexStr)
		}
		return
	}
	suffix := ""
	if len(m.g.Callers(f)) > 0 {
		if chain, ok := m.lockFreeChain(f, a.gf.mutexKey, make(map[*types.Func]bool)); ok {
			suffix = " (example lock-free path: " + chain + ")"
		}
	}
	m.pass.Reportf(a.sel.Pos(),
		"%s %s outside its //cplint:guardedby region: %s is not held in %s%s — acquire it, or move the access into a caller's locked region",
		verb, a.gf.fieldKey, a.gf.mutexStr, analysis.FuncDisplay(f), suffix)
}

// lockFreeChain renders a call chain ending at f that starts at an entry
// point or a go statement and passes only call sites where mkey is not
// held — evidence for why f's held-on-entry set lacks it. Each function
// is visited once; ok is false when no such chain exists.
func (m *lockModel) lockFreeChain(f *types.Func, mkey string, seen map[*types.Func]bool) (string, bool) {
	seen[f] = true
	callers := m.g.Callers(f)
	if len(callers) == 0 {
		return analysis.FuncDisplay(f), true
	}
	for _, c := range callers {
		h, reached := m.siteHeld(c)
		if _, held := h[mkey]; seen[c.Func] || !reached || held {
			continue
		}
		prefix, ok := analysis.FuncDisplay(c.Func), m.sites[c.Site.Call].spawned
		if !ok {
			prefix, ok = m.lockFreeChain(c.Func, mkey, seen)
		}
		if ok {
			return prefix + " → " + analysis.FuncDisplay(f), true
		}
	}
	return "", false
}

// freshLocals answers the constructor exemption: an access is exempt when
// its base is a local whose every definition in the function — its body
// and every nested literal — is a composite literal, &T{…} or new(T). Such
// an object is not shared yet. It is a must-fact over the def-use chains,
// so parameters, receivers and captured variables (no definitions here)
// never qualify, nor does a local that is fresh on one branch only.
type freshLocals struct {
	info *types.Info
	dus  []*analysis.DefUse
}

func newFreshLocals(info *types.Info, body *ast.BlockStmt) freshLocals {
	fl := freshLocals{info: info, dus: []*analysis.DefUse{analysis.NewDefUse(info, body)}}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fl.dus = append(fl.dus, analysis.NewDefUse(info, lit.Body))
		}
		return true
	})
	return fl
}

func (fl freshLocals) has(base ast.Expr) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	defs := 0
	for _, du := range fl.dus {
		for _, d := range du.DefsFor(id) {
			if _, ranged := d.Node.(*ast.RangeStmt); ranged || len(d.Rhs) != 1 || !fl.constructs(d.Rhs[0]) {
				return false
			}
			defs++
		}
	}
	return defs > 0
}

// constructs reports whether e builds a new object: T{…}, &T{…} or new(T).
func (fl freshLocals) constructs(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := ast.Unparen(x.X).(*ast.CompositeLit)
		return x.Op == token.AND && lit
	case *ast.CallExpr:
		id, _ := ast.Unparen(x.Fun).(*ast.Ident)
		b, ok := fl.info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "new"
	}
	return false
}

// guardedAccessesIn collects guarded-field selector accesses in root,
// classifying each as a read or a write. Nested function literals are
// excluded — callers scan them with their own held context.
// Composite-literal keys never appear as selectors, so initialization is
// exempt by construction.
func guardedAccessesIn(info *types.Info, root ast.Node, guarded map[*types.Var]*guardedField) []guardedAccess {
	var out []guardedAccess
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		stack = append(stack, n)
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && guarded[v] != nil {
				out = append(out, guardedAccess{sel: sel, gf: guarded[v], write: isWrite(info, stack)})
			}
		}
		return true
	})
	return out
}

// isWrite reports whether the guarded selector on top of stack is written.
// It walks up through the index, selector, star and paren nodes the field
// is the base of: the access writes when that path is an assignment or
// inc/dec target (x.f = v, x.f[k] = v, x.f.g++) or the first argument of
// delete or clear. Taking an address writes only for &x.f itself (the
// pointer can be written through); an element address such as &x.f[i]
// stays a read.
func isWrite(info *types.Info, stack []ast.Node) bool {
	sel := stack[len(stack)-1].(ast.Expr)
	cur, i := sel, len(stack)-2
	for ; i >= 0; i-- {
		var base ast.Expr
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			base = p.X
		case *ast.IndexExpr:
			base = p.X
		case *ast.SelectorExpr:
			base = p.X
		case *ast.StarExpr:
			base = p.X
		}
		if base != cur {
			break
		}
		cur = stack[i].(ast.Expr)
	}
	if i < 0 {
		return false
	}
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == cur {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == cur
	case *ast.UnaryExpr:
		return p.Op == token.AND && ast.Unparen(cur) == sel
	case *ast.CallExpr:
		id, _ := ast.Unparen(p.Fun).(*ast.Ident)
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && (b.Name() == "delete" || b.Name() == "clear") && p.Args[0] == cur
	}
	return false
}

// collectGuardedFields walks every package's struct declarations for
// guardedby directives and "guarded by" prose, reporting malformed
// directives and unenforced prose contracts.
func (m *lockModel) collectGuardedFields() map[*types.Var]*guardedField {
	out := make(map[*types.Var]*guardedField)
	for _, pkg := range m.pass.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							m.collectFieldDirective(pkg, ts, st, field, out)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

func (m *lockModel) collectFieldDirective(pkg *analysis.Package, ts *ast.TypeSpec, st *ast.StructType, field *ast.Field, out map[*types.Var]*guardedField) {
	pass := m.pass
	spec, dirPos, found := fieldGuardedbySpec(field)
	if !found {
		if pos, prose := fieldGuardedProse(field); prose && len(field.Names) > 0 {
			pass.Reportf(pos,
				"field %s.%s documents a lock contract in prose (\"guarded by\") but carries no //cplint:guardedby directive — convert it so the locks analyzer enforces the contract",
				ts.Name.Name, field.Names[0].Name)
		}
		return
	}
	if len(field.Names) == 0 {
		pass.Reportf(dirPos, "//cplint:guardedby on an embedded field is not supported; name the field")
		return
	}
	if spec == "" {
		pass.Reportf(dirPos, "//cplint:guardedby needs a mutex: '//cplint:guardedby <mutex>' where <mutex> is a sibling field, Type.field, or a package-level variable")
		return
	}
	mkey, ok := resolveMutexSpec(pkg, ts, st, spec)
	if !ok {
		pass.Reportf(dirPos,
			"//cplint:guardedby %s does not resolve to a sync.Mutex or sync.RWMutex (looked for a sibling field of %s, a same-package Type.field, and a package-level variable)",
			spec, ts.Name.Name)
		return
	}
	for _, name := range field.Names {
		if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
			out[v] = &guardedField{
				fieldKey: pkg.Types.Name() + "." + ts.Name.Name + "." + name.Name,
				mutexKey: mkey,
				mutexStr: spec,
			}
		}
	}
}

// fieldGuardedbySpec extracts the directive's mutex spec from a field's doc
// or trailing comment. found reports whether the directive is present at all
// (spec may be empty — malformed). Only the first whitespace-separated token
// is the spec; anything after it is free-form prose.
func fieldGuardedbySpec(field *ast.Field) (spec string, pos token.Pos, found bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := commentDirectiveText(c)
			if !strings.HasPrefix(text, guardedbyDirective) {
				continue
			}
			rest := strings.TrimPrefix(text, guardedbyDirective)
			if rest != "" && !strings.HasPrefix(rest, " ") {
				continue // some other directive sharing the prefix
			}
			spec, _, _ = strings.Cut(strings.TrimSpace(rest), " ")
			return spec, c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// commentDirectiveText normalizes one comment to its directive text.
func commentDirectiveText(c *ast.Comment) string {
	text := c.Text
	if strings.HasPrefix(text, "/*") {
		text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
	} else {
		text = strings.TrimPrefix(text, "//")
	}
	return strings.TrimSpace(text)
}

// fieldGuardedProse reports whether the field's comments contain a "guarded
// by" prose contract.
func fieldGuardedProse(field *ast.Field) (token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(strings.ToLower(cg.Text()), "guarded by") {
			return cg.Pos(), true
		}
	}
	return token.NoPos, false
}

// resolveMutexSpec resolves a directive's mutex spec to a canonical mutex
// key under the same scheme mutexKey uses for lock call sites.
func resolveMutexSpec(pkg *analysis.Package, ts *ast.TypeSpec, st *ast.StructType, spec string) (string, bool) {
	pkgName := pkg.Types.Name()
	if typeName, fieldName, qualified := strings.Cut(spec, "."); qualified {
		obj := pkg.Types.Scope().Lookup(typeName)
		if obj == nil {
			return "", false
		}
		named := namedOf(obj.Type())
		if named == nil {
			return "", false
		}
		stru, ok := named.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		for i := 0; i < stru.NumFields(); i++ {
			f := stru.Field(i)
			if f.Name() == fieldName && isMutexVar(f.Type()) {
				return pkgName + "." + typeName + "." + fieldName, true
			}
		}
		return "", false
	}
	// Sibling field of the same struct.
	for _, sib := range st.Fields.List {
		for _, name := range sib.Names {
			if name.Name == spec {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok && isMutexVar(v.Type()) {
					return pkgName + "." + ts.Name.Name + "." + spec, true
				}
				return "", false
			}
		}
	}
	// Package-level mutex variable.
	if v, ok := pkg.Types.Scope().Lookup(spec).(*types.Var); ok && isMutexVar(v.Type()) {
		return pkgName + "." + spec, true
	}
	return "", false
}

func isMutexVar(t types.Type) bool {
	named := namedOf(t)
	return named != nil && isSyncMutexType(named)
}

// reportMisplacedGuardedby flags guardedby comments that are not attached to
// a struct field — they guard nothing.
func (m *lockModel) reportMisplacedGuardedby() {
	for _, pkg := range m.pass.Pkgs {
		for _, file := range pkg.Files {
			attached := make(map[*ast.CommentGroup]bool)
			ast.Inspect(file, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						attached[field.Doc] = true
						attached[field.Comment] = true
					}
				}
				return true
			})
			for _, cg := range file.Comments {
				if attached[cg] {
					continue
				}
				for _, c := range cg.List {
					if strings.HasPrefix(commentDirectiveText(c), guardedbyDirective) {
						m.pass.Reportf(c.Pos(),
							"misplaced //cplint:guardedby: the directive must be a struct field's doc or trailing comment; here it guards nothing")
					}
				}
			}
		}
	}
}
