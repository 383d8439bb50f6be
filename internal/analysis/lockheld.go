package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// LockHeldAnalyzer flags mutexes held across blocking operations. A
// channel send, a bare receive, a WaitGroup (or any other) Wait, a
// select with no default clause, time.Sleep, or a call into a blocking
// I/O package — fmt.Fprint* included, since it writes to an arbitrary
// io.Writer such as an http.ResponseWriter — while a sync.Mutex is held
// is how the serving layer deadlocks: the blocked goroutine keeps the
// lock the unblocking goroutine needs. The rule walks the CFG region between each Lock and
// its matching same-receiver Unlock — the whole rest of the function
// when the unlock is deferred — and reports every blocking statement in
// it. A select that has a default clause is non-blocking by
// construction and is not reported (the queue-full fast path in
// server.admit is the motivating example).
func LockHeldAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockheld",
		Doc:  "mutex held across channel send, Wait, or blocking I/O",
		Run:  runLockHeld,
	}
}

func runLockHeld(p *Pass) []Finding {
	var out []Finding
	for _, ff := range p.Facts().Funcs {
		for _, op := range ff.Mutex {
			if !op.Acquire() || op.Deferred {
				continue
			}
			release := releaseMethod(op.Method)
			stop := func(n *Node) bool {
				for _, r := range ff.Mutex {
					if r.Node == n && !r.Deferred && r.Method == release && r.Recv == op.Recv {
						return true
					}
				}
				return false
			}
			held := fmt.Sprintf("%s (locked at line %d)", op.Recv, p.position(op.Call).Line)
			ff.Graph.visitReachable(op.Node, stop, func(n *Node) {
				if what := blockingOp(n); what != "" {
					out = append(out, Finding{
						Pos:      p.position(n.Stmt),
						Analyzer: "lockheld",
						Message:  fmt.Sprintf("%s held across %s; release the lock before blocking", held, what),
					})
				}
			})
		}
	}
	return out
}

func releaseMethod(acquire string) string {
	if acquire == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// blockingOp describes the blocking operation the node performs, or ""
// when it cannot block. Comm clauses are never reported directly: their
// select header already decided blocking-ness (default clause present or
// not), and reporting both would double-count one site.
func blockingOp(n *Node) string {
	switch s := n.Stmt.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "" // default clause: non-blocking
			}
		}
		return "blocking select"
	case *ast.CommClause:
		return ""
	}
	what := ""
	shallowInspect(n.Stmt, func(x ast.Node) bool {
		if what != "" {
			return false
		}
		switch x := x.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				what = "channel receive"
				return false
			}
		case *ast.SendStmt:
			what = "channel send"
			return false
		case *ast.CallExpr:
			callee := renderCallee(x)
			switch {
			case strings.HasSuffix(callee, ".Wait"):
				what = callee + "()"
				return false
			case callee == "time.Sleep":
				what = "time.Sleep"
				return false
			case strings.HasPrefix(callee, "io.") || strings.HasPrefix(callee, "http.") ||
				strings.HasPrefix(callee, "net.") || strings.HasPrefix(callee, "exec.") ||
				strings.HasPrefix(callee, "fmt.Fprint"):
				what = "blocking I/O call " + callee
				return false
			}
		}
		return true
	})
	return what
}
