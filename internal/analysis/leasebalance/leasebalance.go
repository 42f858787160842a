// Package leasebalance checks that every clone lease is matched by exactly
// one release on every path out of the acquiring function — the invariant
// the clone-lifecycle audits of PRs 3 and 6 kept re-proving by hand. A
// leaked lease never fails a test directly; it drifts ClonePool.Outstanding
// until a soak or a cancelled campaign strands clones, which is why the
// check belongs in vet rather than in test assertions that must remember
// to run.
//
// Obligations:
//
//   - (*cluster.ClonePool).Lease: the returned *Cluster must be released
//     (pool.Release(c)), returned to the caller (ownership transfers), or
//     stored into a longer-lived structure (field, slice, map, channel —
//     the pool's own free list is the canonical example). Only a return of
//     the clone itself, a composite literal holding it or a func literal
//     capturing it transfers ownership; `return f(c)` merely uses it.
//   - A function annotated `//dice:lease` returns a release closure (the
//     first func() result); callers must invoke it, defer it, or pass it
//     on. Campaign.leaseClone is the canonical carrier.
//
// The walker is path-sensitive over the statement structure: branches of
// if/switch/select are explored separately and an obligation is reported
// (at its acquire site) if any path reaches a return with the lease
// neither released nor transferred. The error path of the acquire itself
// is understood — after `c, err := pool.Lease(); if err != nil { return }`
// there is nothing to release on the error branch.
//
// Known, deliberate incompletenesses (the analyzer is a tripwire, not a
// verifier): functions containing goto are skipped; break/continue paths
// are not followed; a release inside any function literal in the body is
// trusted to run. These choices trade missed exotic leaks for zero noise
// on idiomatic code.
//
// Suppression: `//dice:allow leasebalance <reason>`.
package leasebalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/dice-project/dice/internal/analysis"
)

// Analyzer is the leasebalance pass.
var Analyzer = &analysis.Analyzer{
	Name: "leasebalance",
	Doc:  "checks every ClonePool lease is released, transferred or stored on all paths",
	Run:  run,
}

const clusterPkg = analysis.ModulePath + "/internal/cluster"

func run(pass *analysis.Pass) error {
	// Export //dice:lease facts: FuncKey -> index of the release-func result.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.HasDirective(fd.Doc, "lease") {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			idx := releaseResultIndex(obj)
			if idx < 0 {
				pass.Reportf(fd.Pos(), "//dice:lease function %s has no func() result to treat as the release obligation", fd.Name.Name)
				continue
			}
			pass.ExportFact("lease:"+analysis.FuncKey(obj), idx)
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
				return true // nested func lits are checked separately below
			case *ast.FuncLit:
				checkBody(pass, n.Body)
				return true
			}
			return true
		})
	}
	return nil
}

// releaseResultIndex finds the first func()-typed result of fn.
func releaseResultIndex(fn *types.Func) int {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if s, ok := sig.Results().At(i).Type().Underlying().(*types.Signature); ok &&
			s.Params().Len() == 0 {
			return i
		}
	}
	return -1
}

// obligation kinds.
const (
	obCluster = iota // a leased *cluster.Cluster
	obFunc           // a release closure from a //dice:lease function
)

// obligation is one tracked lease within one function body.
type obligation struct {
	v      *types.Var // the variable holding the lease or release closure
	errVar *types.Var // the acquire's error result, if assigned
	pos    token.Pos  // acquire site, where leaks are reported
	kind   int
	what   string // human name for the diagnostic
	leaked bool
}

// state maps tracked variables to whether their obligation is still
// outstanding on the current path.
type state map[*obligation]bool

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// checker walks one function body.
type checker struct {
	pass    *analysis.Pass
	obs     []*obligation
	escaped map[*types.Var]bool
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Functions with goto are beyond the structural walker.
	hasGoto := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
			hasGoto = true
		}
		_, isLit := n.(*ast.FuncLit)
		return !hasGoto && (n == body || !isLit)
	})
	if hasGoto {
		return
	}
	c := &checker{pass: pass, escaped: make(map[*types.Var]bool)}
	c.findEscapes(body)
	st := make(state)
	c.walk(body.List, st)
	// Paths that fall off the end of the function.
	for ob, outstanding := range st {
		if outstanding {
			ob.leaked = true
		}
	}
	for _, ob := range c.obs {
		if ob.leaked && !c.escaped[ob.v] {
			c.pass.Reportf(ob.pos,
				"%s is not released on every path: match the lease with exactly one Release/Discard (defer it right after the error check), return it to transfer ownership, or //dice:allow leasebalance <reason>",
				ob.what)
		}
	}
}

// findEscapes pre-scans for uses that move a lease beyond this function's
// responsibility: stores into fields/indexes/globals, channel sends,
// composite literals — and, for release closures, being passed as a call
// argument (t.Cleanup(release), wrapper helpers).
func (c *checker) findEscapes(body *ast.BlockStmt) {
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
				c.escaped[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					continue // plain local assignment, handled by the walker
				}
				// x.f = v / m[k] = v / *p = v: the value outlives the walk.
				if i < len(n.Rhs) {
					mark(n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					mark(n.Rhs[0])
				}
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CallExpr:
			// A release closure passed as an argument (t.Cleanup(release),
			// wrapper helpers) transfers the obligation to the callee.
			for _, a := range n.Args {
				id, ok := ast.Unparen(a).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
				if !ok {
					continue
				}
				if sig, ok := v.Type().Underlying().(*types.Signature); ok && sig.Params().Len() == 0 {
					c.escaped[v] = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					mark(kv.Value)
				} else {
					mark(e)
				}
			}
		}
		return true
	})
}

// walk processes a statement list on the given state, returning whether
// every path through it terminated (returned).
func (c *checker) walk(stmts []ast.Stmt, st state) bool {
	for _, s := range stmts {
		if c.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, st state) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.handleAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					c.handleBinding(identsOf(vs.Names), vs.Values, st)
				}
			}
		}
	case *ast.ExprStmt:
		c.scanReleases(s.X, st)
		c.checkDroppedAcquire(s.X)
	case *ast.DeferStmt:
		c.scanReleases(s.Call, st)
	case *ast.GoStmt:
		c.scanReleases(s.Call, st)
	case *ast.ReturnStmt:
		for ob, outstanding := range st {
			if !outstanding {
				continue
			}
			if returnsVar(c.pass, s, ob.v) {
				st[ob] = false // ownership transfers to the caller
				continue
			}
			ob.leaked = true
		}
		return true
	case *ast.BlockStmt:
		return c.walk(s.List, st)
	case *ast.IfStmt:
		return c.walkIf(s, st)
	case *ast.ForStmt:
		c.walkLoop(s.Body, s.Init, st)
	case *ast.RangeStmt:
		c.walkLoop(s.Body, nil, st)
	case *ast.SwitchStmt:
		return c.walkCases(s.Body, s.Init, st, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		return c.walkCases(s.Body, s.Init, st, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		return c.walkCases(s.Body, nil, st, true)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue: path leaves this construct; treat as terminated
		// without an obligation check (documented incompleteness).
		return true
	}
	return false
}

// handleAssign processes x, y := rhs bindings.
func (c *checker) handleAssign(s *ast.AssignStmt, st state) {
	c.handleBinding(s.Lhs, s.Rhs, st)
}

// handleBinding recognizes acquire calls on the right-hand side and binds
// their obligations to the left-hand variables; it also scans the RHS for
// releases (rare but legal).
func (c *checker) handleBinding(lhs []ast.Expr, rhs []ast.Expr, st state) {
	for _, r := range rhs {
		c.scanReleases(r, st)
	}
	if len(rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	kind, obIdx, what := c.acquireShape(call)
	if obIdx < 0 {
		return
	}
	if obIdx >= len(lhs) {
		return
	}
	obVar := varOf(c.pass, lhs[obIdx])
	if obVar == nil {
		c.pass.Reportf(call.Pos(), "%s is discarded: the lease can never be released", what)
		return
	}
	// Reassigning a variable that still holds an outstanding lease loses
	// the only handle to it.
	for ob, outstanding := range st {
		if outstanding && ob.v == obVar {
			ob.leaked = true
		}
	}
	ob := &obligation{v: obVar, pos: call.Pos(), kind: kind, what: what}
	// The trailing error result, if bound to a variable, gates the
	// obligation: on the error path nothing was leased.
	if n := len(lhs); n > obIdx+1 {
		if errV := varOf(c.pass, lhs[n-1]); errV != nil && isErrorVar(errV) {
			ob.errVar = errV
		}
	}
	c.obs = append(c.obs, ob)
	st[ob] = true
}

// acquireShape classifies a call: (-1) not an acquire, or the obligation's
// result index plus a description.
func (c *checker) acquireShape(call *ast.CallExpr) (kind, obIdx int, what string) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return 0, -1, ""
	}
	if analysis.IsMethodOn(fn, clusterPkg, "ClonePool") && fn.Name() == "Lease" {
		return obCluster, 0, "clone leased from ClonePool.Lease"
	}
	if fn.Pkg() != nil && analysis.IsModulePkg(fn.Pkg().Path()) {
		if v, ok := c.pass.Fact("lease:" + analysis.FuncKey(fn)); ok {
			return obFunc, v.(int), "release func returned by " + fn.Name()
		}
	}
	return 0, -1, ""
}

// checkDroppedAcquire reports an acquire whose results are not bound at all.
func (c *checker) checkDroppedAcquire(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if _, obIdx, what := c.acquireShape(call); obIdx >= 0 {
		c.pass.Reportf(call.Pos(), "%s is discarded: the lease can never be released", what)
	}
}

// scanReleases inspects an expression (including nested function literals,
// which are trusted to run) for releases of tracked obligations.
func (c *checker) scanReleases(e ast.Node, st state) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// release() — calling a tracked closure.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
				c.releaseVar(v, st, obFunc)
			}
		}
		// pool.Release(v) / pool.Discard(v).
		if fn := analysis.CalleeFunc(c.pass.TypesInfo, call); fn != nil &&
			(fn.Name() == "Release" || fn.Name() == "Discard") && analysis.RecvNamed(fn) != nil {
			for _, arg := range call.Args {
				if v := varOf(c.pass, arg); v != nil {
					c.releaseVar(v, st, obCluster)
				}
			}
		}
		return true
	})
}

func (c *checker) releaseVar(v *types.Var, st state, kind int) {
	for ob := range st {
		if ob.v == v && ob.kind == kind {
			st[ob] = false
		}
	}
}

// walkIf explores both branches, understanding the acquire's own error
// check.
func (c *checker) walkIf(s *ast.IfStmt, st state) bool {
	if s.Init != nil {
		c.walkStmt(s.Init, st)
	}
	thenSt := st.clone()
	elseSt := st.clone()
	if errV, nonNil := errCheck(c.pass, s.Cond); errV != nil {
		clearFor := thenSt
		if !nonNil {
			clearFor = elseSt
		}
		for ob := range clearFor {
			if ob.errVar == errV {
				clearFor[ob] = false
			}
		}
	}
	tTerm := c.walk(s.Body.List, thenSt)
	eTerm := false
	hasElse := s.Else != nil
	if hasElse {
		eTerm = c.walkStmt(s.Else, elseSt)
	}
	// Merge surviving branches back into st: an obligation is outstanding
	// if any non-terminated path leaves it outstanding.
	for ob := range st {
		out := false
		if !tTerm && thenSt[ob] {
			out = true
		}
		if hasElse {
			if !eTerm && elseSt[ob] {
				out = true
			}
		} else if st[ob] {
			// No else: the cond-false path falls through with the original
			// state — except the error-cleared case handled above.
			if elseSt[ob] {
				out = true
			}
		}
		st[ob] = out
	}
	// Newly acquired obligations inside branches.
	c.adoptNew(st, thenSt, tTerm)
	if hasElse {
		c.adoptNew(st, elseSt, eTerm)
	}
	return tTerm && hasElse && eTerm
}

// adoptNew merges obligations first seen inside a branch into the parent
// state.
func (c *checker) adoptNew(parent, branch state, terminated bool) {
	for ob, outstanding := range branch {
		if _, known := parent[ob]; !known {
			parent[ob] = outstanding && !terminated
		}
	}
}

// walkLoop approximates a loop by walking the body once; obligations
// acquired inside the body must resolve within it.
func (c *checker) walkLoop(body *ast.BlockStmt, init ast.Stmt, st state) {
	if init != nil {
		c.walkStmt(init, st)
	}
	bodySt := st.clone()
	term := c.walk(body.List, bodySt)
	for ob, outstanding := range bodySt {
		if _, known := st[ob]; !known {
			// Acquired this iteration: outstanding at the end of the body
			// means every iteration leaks one clone.
			if outstanding && !term {
				ob.leaked = true
			}
			parentOut := false
			st[ob] = parentOut
			continue
		}
		if !term && outstanding {
			st[ob] = true
		}
	}
}

// walkCases explores switch/select clauses.
func (c *checker) walkCases(body *ast.BlockStmt, init ast.Stmt, st state, exhaustive bool) bool {
	if init != nil {
		c.walkStmt(init, st)
	}
	allTerm := true
	branchStates := make([]state, 0, len(body.List))
	branchTerms := make([]bool, 0, len(body.List))
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				stmts = append([]ast.Stmt{cl.Comm}, cl.Body...)
			} else {
				stmts = cl.Body
			}
		}
		bs := st.clone()
		term := c.walk(stmts, bs)
		branchStates = append(branchStates, bs)
		branchTerms = append(branchTerms, term)
		if !term {
			allTerm = false
		}
	}
	for ob := range st {
		out := false
		for i, bs := range branchStates {
			if !branchTerms[i] && bs[ob] {
				out = true
			}
		}
		if !exhaustive && st[ob] {
			out = true // no matching case: falls through unchanged
		}
		st[ob] = out
	}
	for i, bs := range branchStates {
		c.adoptNew(st, bs, branchTerms[i])
	}
	return exhaustive && allTerm && len(body.List) > 0
}

// Helpers.

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func identsOf(names []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(names))
	for i, n := range names {
		out[i] = n
	}
	return out
}

// varOf resolves an expression to the local variable it names, nil for
// blank or non-ident targets.
func varOf(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func isErrorVar(v *types.Var) bool {
	return v.Type() != nil && v.Type().String() == "error"
}

// errCheck matches `x != nil` / `x == nil` conditions over an error
// variable, returning the variable and whether the true-branch means
// non-nil.
func errCheck(pass *analysis.Pass, cond ast.Expr) (*types.Var, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNil(pass, x) {
		x, y = y, x
	}
	if !isNil(pass, y) {
		return nil, false
	}
	v := varOf(pass, x)
	if v == nil || !isErrorVar(v) {
		return nil, false
	}
	return v, be.Op == token.NEQ
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNilObj
}

// returnsVar reports whether the return statement hands v to the caller.
func returnsVar(pass *analysis.Pass, ret *ast.ReturnStmt, v *types.Var) bool {
	for _, r := range ret.Results {
		if transfers(pass, r, v) {
			return true
		}
	}
	return false
}

// transfers reports whether a returned expression carries v out of the
// function: v itself, a composite literal (or &T{...}) holding it, or a func
// literal capturing it. Any other mention — f(v), v.Field — only uses the
// lease, so the obligation stays with this function.
func transfers(pass *analysis.Pass, e ast.Expr, v *types.Var) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e] == v
	case *ast.UnaryExpr:
		return e.Op == token.AND && transfers(pass, e.X, v)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if transfers(pass, elt, v) {
				return true
			}
		}
	case *ast.FuncLit:
		found := false
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}
