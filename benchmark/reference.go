package main

import (
	"math/rand/v2"
	"runtime"
	"time"
)

// The reference kernel measures the host's speed next to every timed
// operation. On a host of shared virtual CPUs the CPU time of the same work
// moves by up to half between quiet and busy minutes: the neighbours share
// the physical core and its caches, and the guest cannot tell. A fixed
// sparse multiply timed on the same core right before an operation slows
// down with it, so the end-to-end metrics divide each CPU time by the
// kernel's and report reference milliseconds: the CPU time on a host where
// one kernel call takes 1 ms. README.md gives the measurements behind this.
//
// The kernel and its matrix belong to the benchmark, not the program, so a
// change to the program cannot move the yardstick: it squares a fixed
// 2048 × 2048 R-MAT matrix of 16384 entries with a row-by-row dense
// accumulator.

// refN and refNNZ size the reference matrix.
const (
	refN   = 2048
	refNNZ = 16384
)

// refMatrix is the reference kernel's operand in compressed-row form.
var refMatrix = newRefMatrix()

type refCSR struct {
	rowPtr []int
	col    []int32
	val    []float64
}

// newRefMatrix draws the reference matrix: R-MAT edges with quadrant
// probabilities 0.45, 0.15, 0.15, 0.25 from a fixed seed, duplicates kept.
func newRefMatrix() refCSR {
	rng := rand.New(rand.NewPCG(0x726566, 0x6b65726e))
	rows := make([]int32, refNNZ)
	cols := make([]int32, refNNZ)
	for e := range rows {
		var r, c int32
		for half := int32(refN / 2); half > 0; half /= 2 {
			switch p := rng.Float64(); {
			case p < 0.45:
			case p < 0.60:
				c += half
			case p < 0.75:
				r += half
			default:
				r, c = r+half, c+half
			}
		}
		rows[e], cols[e] = r, c
	}
	m := refCSR{rowPtr: make([]int, refN+1), col: make([]int32, refNNZ), val: make([]float64, refNNZ)}
	for _, r := range rows {
		m.rowPtr[r+1]++
	}
	for i := 0; i < refN; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	next := append([]int(nil), m.rowPtr[:refN]...)
	for e, r := range rows {
		m.col[next[r]] = cols[e]
		m.val[next[r]] = 1 + float64(e%7)
		next[r]++
	}
	return m
}

// refSink keeps the kernel's result alive.
var refSink float64

// referenceKernel squares the reference matrix and sums the product.
func referenceKernel() {
	m := refMatrix
	acc := make([]float64, refN)
	seen := make([]int32, refN)
	for i := range seen {
		seen[i] = -1
	}
	touched := make([]int32, 0, refN)
	var sum float64
	for i := int32(0); i < refN; i++ {
		touched = touched[:0]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			k, a := m.col[p], m.val[p]
			for q := m.rowPtr[k]; q < m.rowPtr[k+1]; q++ {
				j := m.col[q]
				if seen[j] != i {
					seen[j] = i
					acc[j] = 0
					touched = append(touched, j)
				}
				acc[j] += a * m.val[q]
			}
		}
		for _, j := range touched {
			sum += acc[j]
		}
	}
	refSink += sum
}

// referenceMS runs the reference kernel once and returns the CPU time of
// the thread that ran it, in milliseconds. The goroutine keeps its thread
// for the call, so work the scheduler runs meanwhile on other threads, such
// as the collector's, is not counted.
func referenceMS() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	referenceKernel()
	return float64((threadCPU() - start).Nanoseconds()) / 1e6
}

// referenceSampler runs the reference kernel on a goroutine of its own,
// once at the start and then every interval, for an open-loop phase whose
// operations overlap. The returned stop ends it and returns the CPU times
// it measured, at least one.
func referenceSampler(interval time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		xs := []float64{referenceMS()}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				out <- xs
				return
			case <-tick.C:
				xs = append(xs, referenceMS())
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// threadCPU returns the CPU time, user and system, of the calling thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }
