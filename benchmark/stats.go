package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, 0 for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the benchmark's spread matches the one its acceptance is
// judged by. A sample of one value has both quartiles equal to it.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overhead returns how much slower the traced operations ran than the
// untraced ones (traced/untraced − 1), or 0 when either side is missing.
func overhead(traced, untraced float64) float64 {
	if traced == 0 || untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// stamp is a point in time on two clocks: the wall clock, and the CPU time
// the whole process has used, user and system, over all its threads.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// cost is what happened between two stamps, in milliseconds. refMS is the
// reference kernel's CPU time measured right before (0 when none was).
type cost struct {
	wallMS, cpuMS, refMS float64
}

// now reads both clocks. CPU time leaves out what a shared host adds to
// wall time: time the hypervisor hands the virtual CPU to another tenant
// (a Linux guest does not charge a task for it) and time spent runnable
// behind other threads.
func now() stamp {
	return stamp{wall: time.Now(), cpu: cpuClock(clockProcessCPUTime)}
}

// Linux's CPU-time clocks, which the syscall package does not name. Both
// count to the nanosecond, where getrusage on a tick-accounted kernel can
// lag the running thread by a scheduler tick.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuClock reads one of the CPU-time clocks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno)) // cannot fail for these clocks
	}
	return time.Duration(ts.Nano())
}

// wallMS reads the wall time of each cost, cpuMS its CPU time, refCPU its
// CPU time in reference milliseconds (see reference.go), and refMS the
// reference kernel's time.
func wallMS(cs []cost) []float64 { return project(cs, func(c cost) float64 { return c.wallMS }) }
func cpuMS(cs []cost) []float64  { return project(cs, func(c cost) float64 { return c.cpuMS }) }
func refCPU(cs []cost) []float64 {
	return project(cs, func(c cost) float64 { return c.cpuMS / c.refMS })
}
func refMS(cs []cost) []float64 { return project(cs, func(c cost) float64 { return c.refMS }) }

func project(cs []cost, f func(cost) float64) []float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return xs
}

// since returns the cost from s until now.
func (s stamp) since() cost {
	n := now()
	return cost{
		wallMS: float64(n.wall.Sub(s.wall).Nanoseconds()) / 1e6,
		cpuMS:  float64((n.cpu - s.cpu).Nanoseconds()) / 1e6,
	}
}
