package gpusim

import (
	"fmt"
	"slices"
	"strings"
)

// LabelStats aggregates the blocks carrying one Label.
type LabelStats struct {
	Blocks int64
	// Cycles is the summed SM-occupancy time of the label's blocks;
	// Span is the wall-clock window from the first dispatch to the last
	// completion — the "execution time of the dominator blocks" metric of
	// the paper's Figure 11.
	Cycles float64
	Span   float64
	Bytes  float64

	start, end float64
}

// KernelResult holds the measured statistics of one simulated kernel.
type KernelResult struct {
	Name  string
	Phase Phase
	// Cycles is the kernel makespan including launch overhead; Seconds is
	// the wall-clock equivalent on the simulated device.
	Cycles  float64
	Seconds float64
	// SMBusyCycles is the occupied time of each SM — the quantity behind
	// the paper's per-SM execution time plots and the LBI metric.
	SMBusyCycles []float64
	// LBI is the load balancing index of equation (3): mean SM busy time
	// over max SM busy time, in (0, 1].
	LBI float64
	// Traffic: all global accesses flow through L2, so L2Read/WriteBytes
	// are total read/write traffic; DRAMBytes is the miss portion.
	L2ReadBytes  float64
	L2WriteBytes float64
	DRAMBytes    float64
	// L2ReadThroughput / L2WriteThroughput are in bytes per second.
	L2ReadThroughput  float64
	L2WriteThroughput float64
	// Stall decomposition (approximate, cycle-weighted): IssueCycles is
	// useful issue time, MemStallCycles is unhidden memory time,
	// SyncStallCycles is lock-step idle-lane time — the paper's "sync
	// stall" population that B-Gathering removes.
	IssueCycles     float64
	MemStallCycles  float64
	SyncStallCycles float64
	// SyncStallPct is SyncStallCycles over all stall+issue cycles ×100.
	SyncStallPct float64
	// BlocksExecuted counts thread blocks; ThreadIters counts effective
	// thread iterations (the real work).
	BlocksExecuted int64
	ThreadIters    int64
	// AvgResidentWarps is the time-weighted mean resident warp count per
	// SM; Occupancy normalizes it by the device's warp capacity — the
	// "achieved occupancy" metric of the CUDA profiler.
	AvgResidentWarps float64
	Occupancy        float64
	// Trace holds per-dispatch intervals when Config.TraceEvents > 0;
	// TraceDropped counts events beyond the cap.
	Trace        []TraceEvent
	TraceDropped int64

	// labels is the label table, sorted by name once the run ends.
	labels   []labelRow
	warpTime float64
}

// labelRow is one label's row of the label table.
type labelRow struct {
	name  string
	stats LabelStats
}

func newKernelResult(name string, phase Phase, cfg *Config) *KernelResult {
	return &KernelResult{
		Name:         name,
		Phase:        phase,
		SMBusyCycles: make([]float64, cfg.NumSMs),
	}
}

// labelSlot returns the index of label's row in the label table, adding
// the row if the table has none.
func (r *KernelResult) labelSlot(label string) int32 {
	for i := range r.labels {
		if r.labels[i].name == label {
			return int32(i)
		}
	}
	r.labels = append(r.labels, labelRow{name: label})
	return int32(len(r.labels) - 1)
}

// finalize fills the derived fields once simulation completes.
func (r *KernelResult) finalize(cfg *Config) {
	for i := range r.labels {
		lb := &r.labels[i].stats
		lb.Span = lb.end - lb.start
	}
	slices.SortFunc(r.labels, func(x, y labelRow) int { return strings.Compare(x.name, y.name) })
	r.Seconds = cfg.Seconds(r.Cycles)
	r.LBI = lbi(r.SMBusyCycles)
	if r.Seconds > 0 {
		r.L2ReadThroughput = r.L2ReadBytes / r.Seconds
		r.L2WriteThroughput = r.L2WriteBytes / r.Seconds
	}
	denom := r.IssueCycles + r.MemStallCycles + r.SyncStallCycles
	if denom > 0 {
		r.SyncStallPct = 100 * r.SyncStallCycles / denom
	}
	if span := r.Cycles - float64(cfg.KernelOverheadCycles); span > 0 {
		r.AvgResidentWarps = r.warpTime / (span * float64(cfg.NumSMs))
		if capWarps := float64(cfg.MaxThreadsPerSM / cfg.WarpSize); capWarps > 0 {
			r.Occupancy = r.AvgResidentWarps / capWarps
		}
	}
}

// Label returns the aggregate statistics of blocks tagged with label.
func (r *KernelResult) Label(label string) (LabelStats, bool) {
	for _, l := range r.labels {
		if l.name == label {
			return l.stats, true
		}
	}
	return LabelStats{}, false
}

// Labels returns the tagged classes present in the kernel, sorted.
func (r *KernelResult) Labels() []string {
	out := make([]string, len(r.labels))
	for i, l := range r.labels {
		out[i] = l.name
	}
	return out
}

// lbi implements the paper's load balancing index (equation 3): the mean
// over SMs of busy time normalized by the busiest SM.
func lbi(busy []float64) float64 {
	var max, sum float64
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 1
	}
	return sum / (float64(len(busy)) * max)
}

// Report aggregates the kernels of one spGEMM run (preprocessing,
// expansion, merge) on one device.
type Report struct {
	Device  string
	Kernels []*KernelResult
	// HostSeconds is CPU-side preprocessing time (B-Splitting runs on the
	// host in the paper); it is included in TotalSeconds, matching the
	// paper's measurement methodology (all overhead except transfer).
	HostSeconds float64
}

// TotalSeconds is the end-to-end time the paper reports: all kernels plus
// host preprocessing, excluding host-device transfer.
func (r *Report) TotalSeconds() float64 {
	t := r.HostSeconds
	for _, k := range r.Kernels {
		t += k.Seconds
	}
	return t
}

// PhaseSeconds sums the time of kernels in the given phase.
func (r *Report) PhaseSeconds(p Phase) float64 {
	var t float64
	for _, k := range r.Kernels {
		if k.Phase == p {
			t += k.Seconds
		}
	}
	return t
}

// Kernel returns the first kernel result with the given name, or nil.
func (r *Report) Kernel(name string) *KernelResult {
	for _, k := range r.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// GFLOPS converts a useful-work count (multiply-add pairs) and the report's
// total time into the paper's throughput metric 2·flops/time/1e9.
func (r *Report) GFLOPS(multiplyAdds int64) float64 {
	t := r.TotalSeconds()
	if t <= 0 {
		return 0
	}
	return 2 * float64(multiplyAdds) / t / 1e9
}

// String summarizes the report for logs.
func (r *Report) String() string {
	s := fmt.Sprintf("%s: total %.3f ms (host %.3f ms)", r.Device, r.TotalSeconds()*1e3, r.HostSeconds*1e3)
	for _, k := range r.Kernels {
		s += fmt.Sprintf("\n  [%s] %-24s %10.3f ms  blocks=%-8d LBI=%.2f sync%%=%.1f",
			k.Phase, k.Name, k.Seconds*1e3, k.BlocksExecuted, k.LBI, k.SyncStallPct)
	}
	return s
}
