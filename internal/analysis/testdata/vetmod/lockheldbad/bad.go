// Package lockheldbad is a fixture for the lockheld analyzer: mutexes
// held across blocking operations.
package lockheldbad

import (
	"fmt"
	"io"
	"sync"
)

var mu sync.Mutex

var ch = make(chan int)

// SendUnderLock holds mu across a channel send.
func SendUnderLock(v int) {
	mu.Lock()
	ch <- v // blocked senders keep the lock
	mu.Unlock()
}

// WaitUnderDeferredLock holds mu, via the deferred unlock, across a
// WaitGroup wait and a receive.
func WaitUnderDeferredLock(wg *sync.WaitGroup) int {
	mu.Lock()
	defer mu.Unlock()
	wg.Wait()
	return <-ch
}

// BlockingSelect holds mu across a select with no default clause.
func BlockingSelect() int {
	mu.Lock()
	defer mu.Unlock()
	select {
	case v := <-ch:
		return v
	}
}

// FprintUnderLock holds mu across a write to an arbitrary io.Writer: a
// reader that stops reading keeps the lock.
func FprintUnderLock(w io.Writer, v int) {
	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintf(w, "%d\n", v)
}
