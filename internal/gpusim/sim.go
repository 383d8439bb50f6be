package gpusim

import (
	"fmt"
	"math"
)

// defaultInstrPerIter is the warp-instruction cost of one spGEMM inner-loop
// iteration (index load, value load, FMA, address arithmetic, store) when a
// block profile does not override it.
const defaultInstrPerIter = 10

// barrierCost is the cycle cost of one __syncthreads within a gathered
// block partition.
const barrierCost = 40

// timeEps separates "now" from genuinely later events when draining
// simultaneous completions.
const timeEps = 0.01

// Simulator executes kernels on a simulated device. The zero value is not
// usable; construct with New.
type Simulator struct {
	cfg Config
}

// New returns a simulator for the given device configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Config returns the device configuration the simulator was built with.
func (s *Simulator) Config() Config { return s.cfg }

// classCursor walks the grid, handing out chunks of identical blocks.
type classCursor struct {
	blocks    []BlockWork
	classIdx  int
	remaining int
	chunkOf   []int
}

func newClassCursor(k *Kernel, chunkOf []int) *classCursor {
	c := &classCursor{blocks: k.Blocks, chunkOf: chunkOf}
	if len(k.Blocks) > 0 {
		c.remaining = k.Blocks[0].norm()
	}
	return c
}

func (c *classCursor) empty() bool {
	for c.classIdx < len(c.blocks) && c.remaining == 0 {
		c.classIdx++
		if c.classIdx < len(c.blocks) {
			c.remaining = c.blocks[c.classIdx].norm()
		}
	}
	return c.classIdx >= len(c.blocks)
}

// peek returns the next block profile without consuming it.
func (c *classCursor) peek() *BlockWork {
	return &c.blocks[c.classIdx]
}

// take consumes up to the class chunk size and returns how many blocks were
// taken.
func (c *classCursor) take() int {
	n := c.chunkOf[c.classIdx]
	if n > c.remaining {
		n = c.remaining
	}
	c.remaining -= n
	return n
}

// gpuState bundles the device-wide gauges shared by all SMs.
type gpuState struct {
	accumBytes float64 // resident merge-accumulator footprint
	segs       *segmentCache
}

// runningBlock is one resident dispatch (a block, or a chunk of identical
// blocks executing back-to-back in one slot). Its memory demand drains
// under processor-sharing bandwidth allocation; everything else (dispatch
// overhead, issue, critical path, atomics) is a fixed floor computed at
// placement.
type runningBlock struct {
	block *BlockWork
	chunk int
	sm    int
	// placed is the dispatch time; fixedEnd is when the non-memory work
	// completes.
	placed   float64
	fixedEnd float64
	// remBytes is the remaining memory demand; mlp and pipe cap its
	// bandwidth; bw is the current processor-sharing allocation.
	remBytes float64
	mlp      float64
	pipe     float64
	bw       float64
	// issueFloor is recorded for the stall decomposition at completion.
	issueFloor float64
}

// finishEstimate projects the block's completion under its current rate.
func (r *runningBlock) finishEstimate(now float64) float64 {
	f := r.fixedEnd
	if r.remBytes > 0 {
		if r.bw <= 0 {
			return math.Inf(1)
		}
		if m := now + r.remBytes/r.bw; m > f {
			f = m
		}
	}
	return f
}

// Run executes one kernel and returns its statistics. The grid is
// dispatched FIFO to the SMs under occupancy limits; memory bandwidth is
// allocated by processor sharing across all resident blocks and re-divided
// whenever the resident population changes. An error is returned if any
// block can never be scheduled (e.g. its shared memory exceeds the
// per-block limit).
func (s *Simulator) Run(k *Kernel) (*KernelResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if s.cfg.Paranoid || ParanoidEnv() {
		if err := k.CheckDeep(s.cfg.WarpSize); err != nil {
			return nil, err
		}
	}
	cfg := &s.cfg
	for i := range k.Blocks {
		if occ := cfg.OccupancyOf(&k.Blocks[i]); occ.BlocksPerSM == 0 {
			return nil, fmt.Errorf("gpusim: kernel %q block class %d (threads=%d smem=%d) cannot be scheduled on %s",
				k.Name, i, k.Blocks[i].Threads, k.Blocks[i].SharedMem, cfg.Name)
		}
	}

	res := newKernelResult(k.Name, k.Phase, cfg)
	sms := make([]smState, cfg.NumSMs)
	for i := range sms {
		sms[i].id = i
	}
	gpu := &gpuState{segs: newSegmentCache(cfg.L2Size)}
	cursor := newClassCursor(k, s.chunkSizes(k))

	now := float64(cfg.KernelOverheadCycles)
	// The resident dispatches live in one slab per run; running holds
	// their slab indices in dispatch order, and a retired dispatch's slot
	// goes on the free list for the next placement.
	var slab []runningBlock
	var running, free []int

	fill := func() {
		for {
			placed := false
			for i := range sms {
				if cursor.empty() {
					return
				}
				b := cursor.peek()
				if !sms[i].fits(cfg, b) {
					continue
				}
				chunk := cursor.take()
				r := s.place(b, &sms[i], gpu, chunk, now, res)
				sms[i].place(cfg, b)
				gpu.accumBytes += float64(b.AccumBytes)
				if n := len(free); n > 0 {
					slab[free[n-1]] = r
					running = append(running, free[n-1])
					free = free[:n-1]
				} else {
					slab = append(slab, r)
					running = append(running, len(slab)-1)
				}
				placed = true
			}
			if !placed {
				return
			}
		}
	}

	// reallocate divides the memory pipes among the blocks with remaining
	// demand: every block gets its MLP-capped bandwidth, scaled down
	// uniformly when the aggregate exceeds the (hit-mix weighted) pipe.
	reallocate := func() {
		var mlpSum, pipeWeighted float64
		for _, ri := range running {
			if r := &slab[ri]; r.remBytes > 0 {
				mlpSum += r.mlp
				pipeWeighted += r.mlp * r.pipe
			}
		}
		scale := 1.0
		if mlpSum > 0 {
			pipeEff := pipeWeighted / mlpSum
			if mlpSum > pipeEff {
				scale = pipeEff / mlpSum
			}
		}
		for _, ri := range running {
			if r := &slab[ri]; r.remBytes > 0 {
				r.bw = r.mlp * scale
			}
		}
	}

	fill()
	for len(running) > 0 {
		reallocate()
		// Next completion time under current rates.
		next := math.Inf(1)
		for _, ri := range running {
			if f := slab[ri].finishEstimate(now); f < next {
				next = f
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("gpusim: kernel %q stalled with no progress", k.Name)
		}
		// Drain memory demand up to the completion instant.
		elapsed := next - now
		for _, ri := range running {
			if r := &slab[ri]; r.remBytes > 0 {
				r.remBytes -= r.bw * elapsed
				if r.remBytes < 0.5 {
					r.remBytes = 0
				}
			}
		}
		// Time-weighted resident warps (achieved occupancy) and per-SM
		// wall-clock busy time (the paper's per-SM execution time).
		for i := range sms {
			res.warpTime += float64(sms[i].warps) * elapsed
			if sms[i].blocks > 0 {
				sms[i].busyCycles += elapsed
			}
		}
		now = next
		// Retire every block that is done at this instant.
		keep := running[:0]
		for _, ri := range running {
			if r := &slab[ri]; r.remBytes <= 0 && r.fixedEnd <= now+timeEps {
				s.retire(r, &sms[r.sm], gpu, now, res)
				free = append(free, ri)
			} else {
				keep = append(keep, ri)
			}
		}
		running = keep
		fill()
	}
	if !cursor.empty() {
		return nil, fmt.Errorf("gpusim: kernel %q deadlocked with blocks remaining", k.Name)
	}

	res.Cycles = now
	for i := range sms {
		res.SMBusyCycles[i] = sms[i].busyCycles
	}
	res.finalize(cfg)
	return res, nil
}

// chunkSizes picks, per class, how many identical blocks one dispatch may
// fuse, bounding event counts while leaving enough dispatches to keep every
// SM slot busy.
func (s *Simulator) chunkSizes(k *Kernel) []int {
	sizes := make([]int, len(k.Blocks))
	// Enough chunks that every block slot on the device turns over many
	// times, so chunking cannot distort load balance measurably.
	target := s.cfg.NumSMs * s.cfg.MaxBlocksPerSM * 32
	for i := range k.Blocks {
		n := k.Blocks[i].norm()
		c := n / target
		if c < 1 {
			c = 1
		}
		if s.cfg.MaxChunk > 0 && c > s.cfg.MaxChunk {
			c = s.cfg.MaxChunk
		}
		sizes[i] = c
	}
	return sizes
}

// mlpBandwidth is the peak bytes/cycle one block can pull given its warps'
// memory-level parallelism and the effective access latency.
func (s *Simulator) mlpBandwidth(b *BlockWork, latency float64) float64 {
	sectors := float64(b.effWarps(s.cfg.WarpSize) * s.cfg.OutstandingPerWarp)
	return sectors * 32 / latency
}

// place prices the fixed (non-memory) portion of a dispatch, registers its
// traffic statistics, and returns its running state.
func (s *Simulator) place(b *BlockWork, sm *smState, gpu *gpuState, chunk int, now float64, res *KernelResult) runningBlock {
	cfg := &s.cfg
	ipi := float64(b.InstrPerIter)
	if ipi == 0 {
		ipi = defaultInstrPerIter
	}
	warps := float64(b.warps(cfg.WarpSize))

	// --- L2 reuse ---------------------------------------------------
	// Streaming reads: a shared segment hits if some co-recent block
	// installed it; within a chunk, every execution after the first hits.
	readBytes := b.ReadBytesPerIter * float64(b.SumThreadIters)
	writeBytes := b.WriteBytesPerIter * float64(b.SumThreadIters)
	accumBytes := b.AccumTrafficPerIter * float64(b.SumThreadIters)
	readHit := 0.0
	if b.Segment != NoSegment && readBytes > 0 {
		hit := gpu.segs.touch(b.Segment, b.SegmentBytes)
		readHit = float64(chunk-1) / float64(chunk)
		if hit {
			readHit = 1
		}
	}
	// Accumulator read-modify-write traffic: its hit ratio decays as the
	// resident accumulator working set overflows L2 (the B-Limiting
	// lever). Writes of accumulator-carrying blocks follow the same set.
	accumHit := 0.0
	if b.AccumBytes > 0 {
		ws := gpu.accumBytes + float64(b.AccumBytes)
		accumHit = capacityHit(float64(cfg.L2Size), ws)
	}
	totalBytes := readBytes + writeBytes + accumBytes
	var hit float64
	if totalBytes > 0 {
		hitBytes := readBytes*readHit + accumBytes*accumHit
		if b.AccumBytes > 0 {
			hitBytes += writeBytes * accumHit
		}
		hit = hitBytes / totalBytes
	}
	latency := hit*float64(cfg.L2Latency) + (1-hit)*float64(cfg.DRAMLatency)

	// --- issue (lock-step) time --------------------------------------
	// The SM's schedulers are shared among all resident warps, so this
	// block's issue rate is its warp share of the issue width.
	issueShare := warps / float64(sm.warps+int(warps))
	issueCycles := float64(b.SumWarpIters) * ipi / (float64(cfg.SchedulersPerSM) * issueShare)

	// --- critical path -----------------------------------------------
	// The slowest warp pipelines OutstandingPerWarp requests over
	// StreamFactor consecutive elements per line, so each iteration costs
	// at least latency/(outstanding·stream) cycles unless compute already
	// covers that.
	perIter := math.Max(ipi, latency/float64(cfg.OutstandingPerWarp*cfg.StreamFactor))
	critCycles := float64(b.MaxWarpIters) * perIter
	if b.Partitions > 1 {
		critCycles += float64(b.Partitions-1) * barrierCost
	}

	// --- atomics -------------------------------------------------------
	// Warps pipeline their atomics; contention (a thrashing accumulator)
	// multiplies the per-op cost.
	atomCycles := 0.0
	if b.AtomicsPerIter > 0 {
		conflict := 1 + 3*(1-accumHit)
		atomCycles = float64(b.SumThreadIters) * b.AtomicsPerIter * cfg.AtomicCost * conflict /
			float64(b.effWarps(cfg.WarpSize))
	}

	fixed := float64(cfg.BlockOverhead) + math.Max(issueCycles, math.Max(critCycles, atomCycles))
	fchunk := float64(chunk)

	r := runningBlock{
		block:      b,
		chunk:      chunk,
		sm:         sm.id,
		placed:     now,
		fixedEnd:   now + fixed*fchunk,
		remBytes:   totalBytes * fchunk,
		mlp:        s.mlpBandwidth(b, latency),
		pipe:       hit*cfg.L2Bandwidth + (1-hit)*cfg.DRAMBandwidth,
		issueFloor: (float64(cfg.BlockOverhead) + issueCycles) * fchunk,
	}

	// --- statistics ---------------------------------------------------
	res.BlocksExecuted += int64(chunk)
	res.L2ReadBytes += (readBytes + accumBytes/2) * fchunk
	res.L2WriteBytes += (writeBytes + accumBytes/2) * fchunk
	res.DRAMBytes += totalBytes * (1 - hit) * fchunk
	res.IssueCycles += issueCycles * fchunk
	res.ThreadIters += b.SumThreadIters * int64(chunk)
	return r
}

// retire releases a completed dispatch and records its duration-dependent
// statistics.
func (s *Simulator) retire(r *runningBlock, sm *smState, gpu *gpuState, now float64, res *KernelResult) {
	sm.release(&s.cfg, r.block)
	gpu.accumBytes -= float64(r.block.AccumBytes)
	dur := now - r.placed
	if s.cfg.TraceEvents > 0 {
		if len(res.Trace) < s.cfg.TraceEvents {
			res.Trace = append(res.Trace, TraceEvent{
				SM: r.sm, Start: r.placed, End: now, Label: r.block.Label, Blocks: r.chunk,
			})
		} else {
			res.TraceDropped++
		}
	}
	memStall := dur - r.issueFloor
	if memStall < 0 {
		memStall = 0
	}
	res.MemStallCycles += memStall
	lockstepIdle := 1 - float64(r.block.EffThreads)/float64(r.block.Threads)
	res.SyncStallCycles += dur * lockstepIdle
	if r.block.Label != "" {
		lb := res.labels[r.block.Label]
		if lb.Blocks == 0 || r.placed < lb.start {
			lb.start = r.placed
		}
		if now > lb.end {
			lb.end = now
		}
		lb.Blocks += int64(r.chunk)
		lb.Cycles += dur
		lb.Span = lb.end - lb.start
		lb.Bytes += (r.block.ReadBytesPerIter + r.block.WriteBytesPerIter + r.block.AccumTrafficPerIter) *
			float64(r.block.SumThreadIters) * float64(r.chunk)
		res.labels[r.block.Label] = lb
	}
}

// capacityHit maps a working set size to an L2 hit ratio: full hits while
// the set fits, then a smooth 1/x decay as it overflows.
func capacityHit(capacity, workingSet float64) float64 {
	if workingSet <= 0 {
		return 1
	}
	// Real caches lose effectiveness before 100% utilization; model the
	// usable fraction as 80%.
	usable := 0.8 * capacity
	if workingSet <= usable {
		return 1
	}
	return usable / workingSet
}
