package gpusim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// classSlots is what a run resolves once per block class: how many of
// its identical blocks one dispatch fuses, and the slots its label and its
// segment accumulate into (-1 for none).
type classSlots struct {
	chunk          int
	label, segment int32
}

// runningBlock is one resident dispatch (a block, or a chunk of identical
// blocks executing back-to-back in one slot). Its memory demand drains
// under processor-sharing bandwidth allocation; everything else (dispatch
// overhead, issue, critical path, atomics) is a fixed floor computed at
// placement.
type runningBlock struct {
	block *BlockWork
	chunk int
	// sm is the SM the dispatch occupies; label is its class's label slot.
	sm, label int32
	// placed is the dispatch time; fixedEnd is when the non-memory work
	// completes.
	placed   float64
	fixedEnd float64
	// remBytes is the remaining memory demand; mlp caps its bandwidth and
	// mlpPipe is mlp times the pipe bandwidth its hit mix sees; bw is the
	// current processor-sharing allocation.
	remBytes float64
	mlp      float64
	mlpPipe  float64
	bw       float64
	// issueFloor is recorded for the stall decomposition at completion.
	issueFloor float64
}

// launch is the state of one Run.
type launch struct {
	s       *Simulator
	k       *Kernel
	res     *KernelResult
	classes []classSlots
	// class and remaining are the dispatch cursor: the class being handed
	// out and how many of its blocks are still to dispatch.
	class, remaining int
	sms              []smState
	// accumBytes is the resident merge-accumulator footprint.
	accumBytes float64
	segs       segmentCache
	// The resident dispatches live in slab; running holds their slab
	// indices in dispatch order, which is the order every per-dispatch sum
	// runs in, and free the slots of retired ones for the next placement.
	slab          []runningBlock
	running, free []int32
	now           float64
	// mlpSum and pipeWeighted are the next event's processor-sharing sums
	// over the resident dispatches with memory demand left: the survivors
	// of the last event, then each new dispatch as it is placed.
	mlpSum, pipeWeighted float64
}

// Run executes one kernel and returns its statistics. The grid is
// dispatched FIFO to the SMs under occupancy limits; memory bandwidth is
// allocated by processor sharing across all resident blocks and re-divided
// whenever the resident population changes. An error is returned if any
// block can never be scheduled (e.g. its shared memory exceeds the
// per-block limit).
//
// Each event visits every resident dispatch twice: the first pass divides
// the bandwidth and finds the next completion, the second drains demand up
// to it, retires what completed and sums the survivors' terms of the next
// division. A run allocates a fixed number of times, whatever its block
// counts: its buffers are sized once from the grid.
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

	l := &launch{s: s, k: k, res: newKernelResult(k.Name, k.Phase, cfg),
		sms: make([]smState, cfg.NumSMs), now: float64(cfg.KernelOverheadCycles)}
	dispatches, segments := l.resolveClasses()
	l.segs = newSegmentCache(cfg.L2Size, segments)
	resident := min(dispatches, cfg.NumSMs*cfg.MaxBlocksPerSM)
	l.slab = make([]runningBlock, 0, resident)
	indices := make([]int32, 2*resident)
	l.running, l.free = indices[:0:resident], indices[resident:resident]
	for i := range l.sms {
		l.sms[i].id = i
	}
	if len(k.Blocks) > 0 {
		l.remaining = k.Blocks[0].norm()
	}

	l.fill()
	for len(l.running) > 0 {
		if err := l.event(); err != nil {
			return nil, err
		}
		l.fill()
	}
	if !l.exhausted() {
		return nil, fmt.Errorf("gpusim: kernel %q deadlocked with blocks remaining", k.Name)
	}

	res := l.res
	res.Cycles = l.now
	for i := range l.sms {
		res.SMBusyCycles[i] = l.sms[i].busyCycles
	}
	res.finalize(cfg)
	return res, nil
}

// resolveClasses fills l.classes: each class's chunk size (see
// chunkSize), its slot in the result's label table, and a dense slot for
// its segment, equal for classes that name the same segment. It returns
// the number of dispatches the grid makes and the number of distinct
// segments.
func (l *launch) resolveClasses() (dispatches, segments int) {
	blocks := l.k.Blocks
	l.classes = make([]classSlots, len(blocks))
	var bySegment []int32
	for i := range blocks {
		b := &blocks[i]
		c := &l.classes[i]
		c.chunk = l.s.chunkSize(b.norm())
		dispatches += (b.norm() + c.chunk - 1) / c.chunk
		c.label = -1
		if b.Label != "" {
			c.label = l.res.labelSlot(b.Label)
		}
		c.segment = -1
		if b.Segment != NoSegment {
			bySegment = append(bySegment, int32(i))
		}
	}
	slices.SortFunc(bySegment, func(x, y int32) int { return cmp.Compare(blocks[x].Segment, blocks[y].Segment) })
	for j, i := range bySegment {
		if j > 0 && blocks[i].Segment != blocks[bySegment[j-1]].Segment {
			segments++
		}
		l.classes[i].segment = int32(segments)
	}
	if len(bySegment) > 0 {
		segments++
	}
	return dispatches, segments
}

// exhausted reports whether every block of the grid has been dispatched,
// moving the cursor past classes with none left.
func (l *launch) exhausted() bool {
	for l.class < len(l.k.Blocks) && l.remaining == 0 {
		l.class++
		if l.class < len(l.k.Blocks) {
			l.remaining = l.k.Blocks[l.class].norm()
		}
	}
	return l.class >= len(l.k.Blocks)
}

// fill dispatches the grid's next blocks round-robin over the SMs, one
// chunk per SM per round, until no SM fits the next block.
func (l *launch) fill() {
	cfg := &l.s.cfg
	for {
		placed := false
		for i := range l.sms {
			if l.exhausted() {
				return
			}
			b := &l.k.Blocks[l.class]
			sm := &l.sms[i]
			if !sm.fits(cfg, b) {
				continue
			}
			cls := l.classes[l.class]
			chunk := min(cls.chunk, l.remaining)
			l.remaining -= chunk
			r := l.place(b, cls, sm, chunk)
			sm.place(cfg, b)
			l.accumBytes += float64(b.AccumBytes)
			if r.remBytes > 0 {
				l.mlpSum += r.mlp
				l.pipeWeighted += r.mlpPipe
			}
			if n := len(l.free); n > 0 {
				l.slab[l.free[n-1]] = r
				l.running = append(l.running, l.free[n-1])
				l.free = l.free[:n-1]
			} else {
				l.slab = append(l.slab, r)
				l.running = append(l.running, int32(len(l.slab)-1))
			}
			placed = true
		}
		if !placed {
			return
		}
	}
}

// event advances the simulation to the next completion. Its first pass
// divides the memory pipes among the dispatches with remaining demand —
// every one gets its MLP-capped bandwidth, scaled down uniformly when the
// aggregate exceeds the (hit-mix weighted) pipe — and projects each
// dispatch's completion under that rate. Its second pass drains demand up
// to the earliest completion, retires every dispatch done at that instant
// and sums the survivors' terms of the next division.
func (l *launch) event() error {
	now, slab := l.now, l.slab
	scale := 1.0
	if l.mlpSum > 0 {
		pipeEff := l.pipeWeighted / l.mlpSum
		if l.mlpSum > pipeEff {
			scale = pipeEff / l.mlpSum
		}
	}
	next := math.Inf(1)
	for _, ri := range l.running {
		r := &slab[ri]
		f := r.fixedEnd
		if r.remBytes > 0 {
			r.bw = r.mlp * scale
			if r.bw <= 0 {
				continue
			}
			if m := now + r.remBytes/r.bw; m > f {
				f = m
			}
		}
		if f < next {
			next = f
		}
	}
	if math.IsInf(next, 1) {
		return fmt.Errorf("gpusim: kernel %q stalled with no progress", l.k.Name)
	}

	// Time-weighted resident warps (achieved occupancy) and per-SM
	// wall-clock busy time (the paper's per-SM execution time).
	elapsed := next - now
	warpTime := l.res.warpTime
	for i := range l.sms {
		if sm := &l.sms[i]; sm.blocks > 0 {
			warpTime += float64(sm.warps) * elapsed
			sm.busyCycles += elapsed
		}
	}
	l.res.warpTime = warpTime
	l.now = next

	var mlpSum, pipeWeighted float64
	doneBy := next + timeEps
	keep := l.running[:0]
	for _, ri := range l.running {
		r := &slab[ri]
		if r.remBytes > 0 {
			r.remBytes -= r.bw * elapsed
			if r.remBytes < 0.5 {
				r.remBytes = 0
			}
		}
		if r.remBytes <= 0 && r.fixedEnd <= doneBy {
			l.retire(r)
			l.free = append(l.free, ri)
			continue
		}
		if r.remBytes > 0 {
			mlpSum += r.mlp
			pipeWeighted += r.mlpPipe
		}
		keep = append(keep, ri)
	}
	l.running = keep
	l.mlpSum, l.pipeWeighted = mlpSum, pipeWeighted
	return nil
}

// chunkSize picks how many of a class's n identical blocks one dispatch
// may fuse, bounding event counts while leaving enough dispatches to keep
// every SM slot busy.
func (s *Simulator) chunkSize(n int) int {
	// Enough chunks that every block slot on the device turns over many
	// times, so chunking cannot distort load balance measurably.
	target := s.cfg.NumSMs * s.cfg.MaxBlocksPerSM * 32
	c := n / target
	if c < 1 {
		c = 1
	}
	if s.cfg.MaxChunk > 0 && c > s.cfg.MaxChunk {
		c = s.cfg.MaxChunk
	}
	return c
}

// mlpBandwidth is the peak bytes/cycle one block can pull given its warps'
// memory-level parallelism and the effective access latency.
func (s *Simulator) mlpBandwidth(b *BlockWork, latency float64) float64 {
	sectors := float64(b.effWarps(s.cfg.WarpSize) * s.cfg.OutstandingPerWarp)
	return sectors * 32 / latency
}

// place prices the fixed (non-memory) portion of a dispatch of chunk
// blocks of class cls on sm, registers its traffic statistics, and returns
// its running state.
func (l *launch) place(b *BlockWork, cls classSlots, sm *smState, chunk int) runningBlock {
	s, res := l.s, l.res
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
		hit := l.segs.touch(int(cls.segment), b.SegmentBytes)
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
		ws := l.accumBytes + float64(b.AccumBytes)
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

	mlp := s.mlpBandwidth(b, latency)
	r := runningBlock{
		block:      b,
		chunk:      chunk,
		sm:         int32(sm.id),
		label:      cls.label,
		placed:     l.now,
		fixedEnd:   l.now + fixed*fchunk,
		remBytes:   totalBytes * fchunk,
		mlp:        mlp,
		mlpPipe:    mlp * (hit*cfg.L2Bandwidth + (1-hit)*cfg.DRAMBandwidth),
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
func (l *launch) retire(r *runningBlock) {
	cfg, res, now := &l.s.cfg, l.res, l.now
	l.sms[r.sm].release(cfg, r.block)
	l.accumBytes -= float64(r.block.AccumBytes)
	dur := now - r.placed
	if cfg.TraceEvents > 0 {
		if len(res.Trace) < cfg.TraceEvents {
			res.Trace = append(res.Trace, TraceEvent{
				SM: int(r.sm), Start: r.placed, End: now, Label: r.block.Label, Blocks: r.chunk,
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
	if r.label >= 0 {
		lb := &res.labels[r.label].stats
		if lb.Blocks == 0 || r.placed < lb.start {
			lb.start = r.placed
		}
		if now > lb.end {
			lb.end = now
		}
		lb.Blocks += int64(r.chunk)
		lb.Cycles += dur
		lb.Bytes += (r.block.ReadBytesPerIter + r.block.WriteBytesPerIter + r.block.AccumTrafficPerIter) *
			float64(r.block.SumThreadIters) * float64(r.chunk)
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
