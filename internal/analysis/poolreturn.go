package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// PoolReturnAnalyzer tracks arena lifetimes: a buffer taken from the
// shared scratch arenas (parallel.GetFloats, GetInts, GetIntsZeroed,
// GetInt64s, GetUint64sZeroed) must flow back through the matching Put on
// every path out of the function. The scratchmake rule polices how
// scratch is acquired; this one generalizes it to when it is released —
// the early-return and error paths where leaks actually hide. A leaked
// buffer is not a correctness bug (the GC reclaims it) but it silently
// degrades the pool back to per-call allocation, which is exactly the
// regression the arenas exist to prevent.
//
// Releases the CFG walk accepts: a Put call naming the buffer (deferred
// or direct), and a return statement mentioning the buffer (ownership
// transfers to the caller). A buffer stored into a struct field or slice
// element escapes the function's view and is not tracked.
func PoolReturnAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "poolreturn",
		Doc:  "arena buffer acquired but not returned on every path",
		Run:  runPoolReturn,
	}
}

// putFor maps each arena getter to its required releaser.
var putFor = map[string]string{
	"GetFloats":        "PutFloats",
	"GetInts":          "PutInts",
	"GetIntsZeroed":    "PutInts",
	"GetInt64s":        "PutInt64s",
	"GetUint64sZeroed": "PutUint64s",
}

func runPoolReturn(p *Pass) []Finding {
	var out []Finding
	for _, ff := range p.Facts().Funcs {
		for _, node := range ff.Graph.Nodes {
			as, ok := node.Stmt.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for i, rhs := range as.Rhs {
				call, getter := arenaGet(p, rhs)
				if call == nil {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					// Stored straight into a field or element: the
					// buffer escapes; lifetime is the container's.
					continue
				}
				if escapes(ff, id.Name, as) {
					continue
				}
				put := putFor[getter]
				release := func(n *Node) bool { return releasesBuffer(n, id.Name, put) }
				if ff.Graph.exitReachableFrom(node, release) {
					out = append(out, Finding{
						Pos:      p.position(call),
						Analyzer: "poolreturn",
						Message: fmt.Sprintf("%q from parallel.%s is not released with parallel.%s on every path; return it before early returns",
							id.Name, getter, put),
					})
				}
			}
		}
	}
	return out
}

// arenaGet unwraps an arena-getter right-hand side — the call itself or
// the `parallel.GetInts(n)[:0]` reslice idiom — returning the call and
// getter name, or nil.
func arenaGet(p *Pass, e ast.Expr) (*ast.CallExpr, string) {
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = sl.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	callee := renderCallee(call)
	for getter := range putFor {
		if callee == "parallel."+getter || (p.PkgName == "parallel" && callee == getter) {
			return call, getter
		}
	}
	return nil, ""
}

// escapes reports whether the buffer itself — the slice value, possibly
// resliced, not an element read out of it — is ever assigned into
// something other than a plain identifier (a field, an element, a map
// entry). After that the container owns the lifetime and the rule stops
// tracking. Copying elements out (`dst[i] = buf[k]`) does not escape.
func escapes(ff *FuncFacts, name string, acquire *ast.AssignStmt) bool {
	esc := false
	ast.Inspect(ff.Body, func(n ast.Node) bool {
		if esc {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as == acquire {
			return true
		}
		for i, rhs := range as.Rhs {
			if sl, ok := rhs.(*ast.SliceExpr); ok {
				rhs = sl.X
			}
			id, ok := rhs.(*ast.Ident)
			if !ok || id.Name != name || i >= len(as.Lhs) {
				continue
			}
			if _, ok := as.Lhs[i].(*ast.Ident); !ok {
				esc = true
				return false
			}
		}
		return true
	})
	return esc
}

// releasesBuffer reports whether the node releases the named buffer: a
// Put call (any package qualifier) whose first argument mentions it, or
// a return statement whose result is the buffer itself, possibly
// resliced (ownership transfer to the caller). A return merely computed
// from the buffer, like len(buf), transfers nothing.
func releasesBuffer(n *Node, name, put string) bool {
	if ret, ok := n.Stmt.(*ast.ReturnStmt); ok {
		for _, r := range ret.Results {
			if sl, ok := r.(*ast.SliceExpr); ok {
				r = sl.X
			}
			if id, ok := r.(*ast.Ident); ok && id.Name == name {
				return true
			}
		}
		return false
	}
	found := false
	shallowInspect(n.Stmt, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := renderCallee(call)
		if (callee == put || strings.HasSuffix(callee, "."+put)) &&
			len(call.Args) > 0 && mentionsIdent(call.Args[0], name) {
			found = true
			return false
		}
		return true
	})
	return found
}
