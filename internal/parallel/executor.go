package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor runs chunked loops across a bounded set of workers with work
// stealing. The zero value is not usable; construct with NewExecutor or
// use the process-wide Default.
//
// Concurrency model: every ForEach call is driven by its calling
// goroutine, which always acts as worker 0 — a call never blocks waiting
// for capacity. Additional workers are spawned only while the executor
// has free slots, and the slot pool is shared across all concurrent
// ForEach calls on the same executor. A process that funnels every
// parallel loop through Default therefore never runs more than
// GOMAXPROCS loop goroutines in total, no matter how many server
// requests multiply at once — concurrent requests degrade gracefully to
// sequential execution instead of oversubscribing the host.
//
// Cancellation: WithContext returns a view that stops dealing chunks once
// its context is done, so a timed-out request stops using CPU within the
// chunk each worker holds. A stopped loop leaves its skipped chunks'
// output unwritten; callers check Err before reading it.
type Executor struct {
	workers int
	slots   chan struct{} // capacity workers-1: slots for helper goroutines
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(); nil for an executor that never stops
}

// NewExecutor returns an executor that runs at most workers chunks
// concurrently. workers < 1 selects GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers, slots: make(chan struct{}, workers-1)}
}

// Workers returns the executor's concurrency bound.
func (e *Executor) Workers() int { return e.workers }

// WithContext returns a view of e that deals no further chunk once ctx is
// done. The view shares e's workers and slot pool, so the GOMAXPROCS bound
// holds across every view of one executor; e itself is unaffected. A
// context that can never be done (ctx.Done() is nil) returns e.
func (e *Executor) WithContext(ctx context.Context) *Executor {
	done := ctx.Done()
	if done == nil {
		return e
	}
	return &Executor{workers: e.workers, slots: e.slots, ctx: ctx, done: done}
}

// Err returns the view's context error once the context is done, and nil
// otherwise or for an executor without a context. A loop that ran while
// Err is non-nil may have skipped chunks, so its output must not be read.
func (e *Executor) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// closed reports, without blocking, whether done is closed. A nil done
// never is.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the process-wide executor, sized to GOMAXPROCS at first
// use. Every component of the library that does not receive an explicit
// executor shares it — the single host-side "device" all requests run on.
func Default() *Executor {
	defaultOnce.Do(func() { defaultExec = NewExecutor(0) })
	return defaultExec
}

// deque is one worker's chunk queue. The owner pops from the tail (LIFO,
// cache-warm); thieves steal from the head (FIFO, the oldest and - under
// weighted chunking - typically largest remaining chunk).
type deque struct {
	mu    sync.Mutex
	items []Range
}

func (d *deque) pop() (Range, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return Range{}, false
	}
	r := d.items[n-1]
	d.items = d.items[:n-1]
	return r, true
}

func (d *deque) steal() (Range, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return Range{}, false
	}
	r := d.items[0]
	d.items = d.items[1:]
	return r, true
}

// ForEach runs fn once per chunk. Chunks are dealt contiguously to
// per-worker deques (neighbouring chunks share cache lines of the
// underlying arrays) and rebalanced by stealing: a worker that drains its
// own deque takes chunks from the busiest point of its neighbours' —
// their heads — until none remain. fn must confine its writes to state
// owned by the chunk; ForEach returns when every chunk has run.
//
// With one worker, one chunk, or no free slots, everything runs inline on
// the caller. On a view from WithContext, no chunk starts once the view's
// context is done: ForEach returns when the chunks already running finish,
// and Err reports that the rest were skipped.
func (e *Executor) ForEach(chunks []Range, fn func(Range)) {
	if len(chunks) == 0 {
		return
	}
	nw := e.workers
	if nw > len(chunks) {
		nw = len(chunks)
	}
	if nw <= 1 {
		stats.inlineRuns.Add(1)
		ran := 0
		for _, r := range chunks {
			if closed(e.done) {
				break
			}
			fn(r)
			ran++
		}
		stats.chunks.Add(uint64(ran))
		return
	}

	// Deal contiguous runs of chunks to the deques. Each deque holds a
	// view of the caller's chunk slice — pop and steal only re-slice, so
	// no copies and one allocation for the whole set. All loop state lives
	// in one heap object and the spawned goroutines share one closure
	// (each takes its worker index from the atomic counter), keeping the
	// dispatch at three allocations per parallel call.
	st := &forEachState{deques: make([]deque, nw), fn: fn, done: e.done}
	per := (len(chunks) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(chunks) {
			hi = len(chunks)
		}
		if lo < hi {
			st.deques[w].items = chunks[lo:hi]
		}
	}

	// Spawn helpers only while global slots are free; the caller is
	// always worker 0.
	var helper func()
	spawned := 0
spawn:
	for w := 1; w < nw; w++ {
		select {
		case e.slots <- struct{}{}:
		default:
			// No capacity left; the remaining deques drain via stealing.
			break spawn
		}
		if helper == nil {
			helper = func() {
				defer st.wg.Done()
				defer func() { <-e.slots }()
				st.work(int(st.next.Add(1)))
			}
		}
		spawned++
		st.wg.Add(1)
		go helper()
	}
	if spawned == 0 {
		stats.inlineRuns.Add(1)
	} else {
		stats.runs.Add(1)
	}
	st.work(0)
	st.wg.Wait()
}

// forEachState is the per-call state of one parallel ForEach: the dealt
// deques, the user function, the executor's stop channel, the helper
// index counter, and the completion group.
type forEachState struct {
	deques []deque
	fn     func(Range)
	done   <-chan struct{}
	next   atomic.Int32
	wg     sync.WaitGroup
}

// work drains the worker's own deque tail-first, then steals from the
// other deques' heads until no chunks remain anywhere or the executor's
// context is done.
func (st *forEachState) work(self int) {
	nw := len(st.deques)
	for !closed(st.done) {
		r, ok := st.deques[self].pop()
		if !ok {
			// Steal sweep: scan the other deques once, starting just
			// past this worker so thieves spread out.
			stolen := false
			for off := 1; off < nw; off++ {
				v := (self + off) % nw
				if r, ok = st.deques[v].steal(); ok {
					stats.steals.Add(1)
					stolen = true
					break
				}
			}
			if !stolen {
				return
			}
		}
		stats.chunks.Add(1)
		st.fn(r)
	}
}

// ForEachN runs fn over [0, n) split into equal chunks, for loops whose
// iterations weigh the same (dimension-sized sweeps). parts scales with
// the worker count so stealing has slack to rebalance.
func (e *Executor) ForEachN(n int, fn func(Range)) {
	if n <= 0 {
		return
	}
	e.ForEach(UniformRanges(n, 4*e.workers), fn)
}
