// Package cpu implements the cycle-level out-of-order core timing model of
// the paper's baseline (Table 1): a SimpleScalar-style machine with a
// 128-entry register update unit (RUU), a 64-entry load/store queue, a
// 4-instruction fetch queue, 4-wide fetch/decode/issue/commit, the Table 1
// functional-unit pool, a combined branch predictor with a 7-cycle
// misprediction penalty, and non-blocking data caches (MSHR-limited miss
// overlap — the memory-level parallelism that determines how much a cache
// miss actually costs).
//
// Step(now) advances a core by one cycle and records its wake: the
// earliest later cycle at which another Step could change its state. The
// simulator steps each core only at its wake, in index order among cores
// due in the same cycle, and credits the cycles in between with Idle, so
// contention in the shared last-level cache and memory channel is
// interleaved exactly as if every core stepped every cycle.
//
// Approximations (standard for trace-driven OoO models, documented in
// DESIGN.md): mispredicted branches stall dispatch until the branch
// resolves plus the refill penalty instead of executing wrong-path
// instructions, and stores complete into a write buffer at L1 latency
// while their miss traffic is charged to the hierarchy asynchronously.
package cpu

import (
	"math"
	"math/bits"

	"nucasim/internal/bpred"
	"nucasim/internal/memaddr"
	"nucasim/internal/workload"
)

// Port is the core's view of the memory hierarchy (implemented by
// internal/hierarchy). All methods return the absolute cycle at which the
// access completes.
type Port interface {
	// ReadData performs a data load issued at cycle now.
	ReadData(addr memaddr.Addr, now uint64) (ready uint64)
	// WriteData performs a data store issued at cycle now
	// (write-allocate; the returned time is when the line is written).
	WriteData(addr memaddr.Addr, now uint64) (ready uint64)
	// FetchInstr fetches the instruction block containing pc.
	FetchInstr(pc memaddr.Addr, now uint64) (ready uint64)
}

// Config sizes the core. Zero fields select Table 1 defaults.
type Config struct {
	RUUSize    int // default 128
	LSQSize    int // default 64
	FetchQueue int // default 4
	Width      int // fetch/decode/issue/commit width, default 4

	IntALUs  int // default 4
	FPALUs   int // default 4
	IntMuls  int // default 1
	FPMuls   int // default 1
	MemPorts int // L1D ports, default 2
	MSHRs    int // outstanding L2-or-beyond misses, default 8

	MispredictPenalty int // default 7

	IntALULat int // default 1
	IntMulLat int // default 3
	FPALULat  int // default 2
	FPMulLat  int // default 4
	L1ILat    int // fetch bubbles start beyond this latency; default 2
}

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.RUUSize, 128)
	def(&c.LSQSize, 64)
	def(&c.FetchQueue, 4)
	def(&c.Width, 4)
	def(&c.IntALUs, 4)
	def(&c.FPALUs, 4)
	def(&c.IntMuls, 1)
	def(&c.FPMuls, 1)
	def(&c.MemPorts, 2)
	def(&c.MSHRs, 8)
	def(&c.MispredictPenalty, 7)
	def(&c.IntALULat, 1)
	def(&c.IntMulLat, 3)
	def(&c.FPALULat, 2)
	def(&c.FPMulLat, 4)
	def(&c.L1ILat, 2)
	return c
}

// Stats reports the core's progress and event counts.
type Stats struct {
	Cycles         uint64
	Instructions   uint64 // committed
	Loads          uint64
	Stores         uint64
	Branches       uint64
	Mispredicts    uint64
	FetchStalls    uint64 // cycles fetch was blocked on the I-side
	DispatchStalls uint64 // cycles dispatch was blocked (RUU/LSQ/mispredict)
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MispredictRate returns mispredicted branches per executed branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

const notIssued = math.MaxUint64

// ruuEntry is one in-flight instruction.
type ruuEntry struct {
	cls     workload.Class
	seq     uint64
	depA    uint64 // producer sequence numbers (0 = none)
	depB    uint64
	addr    memaddr.Addr
	readyAt uint64 // completion cycle; notIssued until issued
	issued  bool
}

// Core is one simulated out-of-order processor.
type Core struct {
	ID   int
	cfg  Config
	gen  *workload.Generator
	port Port
	bp   *bpred.Predictor

	// RUU ring buffer of ruuMask+1 slots, the smallest power of two
	// holding RUUSize entries. head/tail are absolute instruction
	// positions (index = pos & ruuMask); scanAbs is the issue-scan
	// frontier: every entry before it is already issued, so the
	// per-cycle scan skips the (often long) issued prefix.
	ruu     []ruuEntry
	ruuMask uint64
	head    uint64
	tail    uint64
	scanAbs uint64
	lsqLen  int

	fetchQ         []workload.Instr
	fetchReady     uint64 // cycle at which the I-side can deliver again
	lastFetchBlock memaddr.Addr

	// Dispatch hold for mispredicted branches: no dispatch until this
	// cycle (branch resolution + refill penalty).
	dispatchHold uint64
	// pendingHoldSeq marks the branch whose resolution sets the hold.
	pendingHoldSeq uint64
	pendingHoldSet bool

	// readyBySeq records the completion cycle of each instruction once
	// it issues (slots are marked pending at dispatch). Producers older
	// than the RUU window have committed and are always ready.
	readyBySeq []uint64

	// mshr holds the completion times of in-flight long-latency loads;
	// its length is the MSHR occupancy.
	mshr []uint64

	nextSeq uint64
	stats   Stats

	// wake is the earliest cycle at which Step can change the core's
	// state; every Step before it only ticks stall counters. Derived, so
	// never checkpointed: 0 after New and Restore, which makes the next
	// cycle step.
	wake uint64
}

// readyRing is the length of readyBySeq, a power of two far beyond any
// RUU window, indexed by seq & (readyRing-1).
const readyRing = 4096

// New builds a core over an instruction generator, a memory port, and a
// branch predictor (each core owns its own predictor).
func New(id int, cfg Config, gen *workload.Generator, port Port, bp *bpred.Predictor) *Core {
	cfg = cfg.withDefaults()
	slots := 1 << bits.Len(uint(cfg.RUUSize-1))
	return &Core{
		ID:         id,
		cfg:        cfg,
		gen:        gen,
		port:       port,
		bp:         bp,
		ruu:        make([]ruuEntry, slots),
		ruuMask:    uint64(slots - 1),
		fetchQ:     make([]workload.Instr, 0, cfg.FetchQueue),
		readyBySeq: make([]uint64, readyRing),
		nextSeq:    1, // seq 0 means "no producer"
	}
}

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Wake returns the earliest cycle at which Step can change the core's
// state, as of its last Step. It is a conservative bound: never later
// than the true next state change, and possibly earlier, which costs
// only a Step that changes nothing.
func (c *Core) Wake() uint64 { return c.wake }

// WarmFunctional advances the core's program by n instructions without
// timing: memory references walk the cache hierarchy (filling it) and
// branches train the predictor, but no cycles pass. This is the classic
// fast-forward-with-warmup used to model the paper's 0.5-1.5 G-instruction
// skip: after it, the caches and predictor hold the working set so the
// timed window measures steady-state behaviour. The caller should
// interleave cores in small chunks (shared structures see interleaved
// streams) and reset the memory channel afterwards.
func (c *Core) WarmFunctional(n uint64) {
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		c.gen.Next(&ins)
		if blk := ins.PC.Block(); blk != c.lastFetchBlock {
			c.lastFetchBlock = blk
			c.port.FetchInstr(ins.PC, 0)
		}
		switch ins.Class {
		case workload.Load:
			c.port.ReadData(ins.Addr, 0)
		case workload.Store:
			c.port.WriteData(ins.Addr, 0)
		case workload.Branch:
			c.bp.Resolve(ins.PC, ins.Taken, ins.Target)
		}
	}
}

// Step advances the core by one cycle ending at time now. Stages run in
// commit → issue → dispatch → fetch order so a result produced this cycle
// is consumed the next — the usual reverse-pipeline update.
func (c *Core) Step(now uint64) {
	c.stats.Cycles++
	c.commit(now)
	wake := c.issue(now)
	dispatched := c.tail
	c.dispatch(now)
	c.fetch(now)
	c.wake = c.nextWake(now, wake, dispatched)
}

// Idle accounts for the cycles [from, to) in which the core was not
// stepped; to must not pass Wake. A Step in any of them would only have
// ticked stall counters and retired completed MSHR entries, so Idle does
// exactly that. Wake never passes a pending dispatchHold or fetchReady,
// so each stall counter ticks on every one of these cycles or on none.
func (c *Core) Idle(from, to uint64) {
	if from >= to {
		return
	}
	n := to - from
	c.stats.Cycles += n
	if c.pendingHoldSet || c.dispatchHold > from || len(c.fetchQ) > 0 {
		c.stats.DispatchStalls += n
	}
	if c.fetchReady > from {
		c.stats.FetchStalls += n
	}
	c.retireMSHRs(to - 1)
}

// nextWake bounds the next cycle after now at which Step could change
// the core's state, given the issue scan's bound and the RUU position
// where this cycle's dispatch began.
func (c *Core) nextWake(now, wake, dispatched uint64) uint64 {
	// Commit: the head completes.
	if c.head < c.tail {
		wake = min(wake, c.ruu[c.head&c.ruuMask].readyAt)
	}
	// Issue of the entries dispatched after this cycle's scan: once both
	// producers have issued, no earlier than both complete. An entry with
	// an unissued producer waits on that producer's issue, an older
	// event bounded by its own entry.
	for pos := dispatched; pos < c.tail; pos++ {
		e := &c.ruu[pos&c.ruuMask]
		wake = min(wake, max(c.producerReady(e.depA), c.producerReady(e.depB)))
	}
	// Dispatch: an unresolved mispredicted branch holds it until the
	// branch issues, an issue event bounded above; a refill penalty ends
	// at dispatchHold, which also ends its stall count.
	switch {
	case c.pendingHoldSet:
	case c.dispatchHold > now:
		wake = min(wake, c.dispatchHold)
	case len(c.fetchQ) > 0 && c.canDispatch(c.fetchQ[0].Class):
		return now + 1
	}
	// Fetch: an I-side miss ends at fetchReady, which also ends its
	// stall count; otherwise fetch proceeds while the queue has room.
	if c.fetchReady > now {
		wake = min(wake, c.fetchReady)
	} else if len(c.fetchQ) < c.cfg.FetchQueue {
		return now + 1
	}
	return max(wake, now+1)
}

// canDispatch reports whether the RUU, and for a memory instruction
// the LSQ, have room for one more entry.
func (c *Core) canDispatch(cls workload.Class) bool {
	if c.tail-c.head == uint64(c.cfg.RUUSize) {
		return false
	}
	return !isMem(cls) || c.lsqLen < c.cfg.LSQSize
}

func isMem(cls workload.Class) bool { return cls == workload.Load || cls == workload.Store }

// retireMSHRs frees the MSHR entries whose miss has completed by cycle
// now.
func (c *Core) retireMSHRs(now uint64) {
	keep := c.mshr[:0]
	for _, t := range c.mshr {
		if t > now {
			keep = append(keep, t)
		}
	}
	c.mshr = keep
}

func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.Width && c.head < c.tail; n++ {
		e := &c.ruu[c.head&c.ruuMask]
		if !e.issued || e.readyAt > now {
			return
		}
		if isMem(e.cls) {
			c.lsqLen--
		}
		c.head++
		c.stats.Instructions++
	}
}

// producerReady returns the cycle the producer of seq's operand completes,
// or 0 if it has no producer / the producer is long gone.
func (c *Core) producerReady(dep uint64) uint64 {
	if dep == 0 {
		return 0
	}
	return c.readyBySeq[dep&(readyRing-1)]
}

// issue selects up to Width entries whose operands are ready, oldest
// first, and returns its part of the core's wake: the earliest cycle at
// which an entry it left unissued could issue.
func (c *Core) issue(now uint64) (wake uint64) {
	intALU, fpALU := c.cfg.IntALUs, c.cfg.FPALUs
	intMul, fpMul := c.cfg.IntMuls, c.cfg.FPMuls
	memPorts := c.cfg.MemPorts
	issued := 0
	c.retireMSHRs(now)

	wake = notIssued
	// mshrFull marks a memory entry held back by a full MSHR file; it
	// can issue once the earliest outstanding miss completes.
	mshrFull := false
	start := max(c.scanAbs, c.head)
	// newScan becomes the first position that is (or may be) unissued
	// after this cycle's pass.
	newScan := c.tail
	for pos := start; pos < c.tail; pos++ {
		if issued == c.cfg.Width {
			newScan = min(newScan, pos)
			wake = now + 1
			break
		}
		e := &c.ruu[pos&c.ruuMask]
		if e.issued {
			continue
		}
		if a, b := c.producerReady(e.depA), c.producerReady(e.depB); a > now || b > now {
			// Ready once both producers complete; an unissued producer
			// (notIssued) is an older entry that bounds the wake itself.
			wake = min(wake, max(a, b))
			if newScan == c.tail {
				newScan = pos
			}
			continue
		}
		// Operands are ready. A unit or port taken this cycle is free
		// again the next, so a blocked entry wakes at now+1.
		switch e.cls {
		case workload.IntALU, workload.Branch:
			if intALU > 0 {
				intALU--
				e.readyAt = now + uint64(c.cfg.IntALULat)
				e.issued = true
			}
		case workload.IntMul:
			if intMul > 0 {
				intMul--
				e.readyAt = now + uint64(c.cfg.IntMulLat)
				e.issued = true
			}
		case workload.FPALU:
			if fpALU > 0 {
				fpALU--
				e.readyAt = now + uint64(c.cfg.FPALULat)
				e.issued = true
			}
		case workload.FPMul:
			if fpMul > 0 {
				fpMul--
				e.readyAt = now + uint64(c.cfg.FPMulLat)
				e.issued = true
			}
		case workload.Load, workload.Store:
			if memPorts == 0 {
				break
			}
			if len(c.mshr) >= c.cfg.MSHRs {
				mshrFull = true
				if newScan == c.tail {
					newScan = pos
				}
				continue
			}
			memPorts--
			if e.cls == workload.Load {
				e.readyAt = c.port.ReadData(e.addr, now)
				if e.readyAt > now+missThreshold {
					c.mshr = append(c.mshr, e.readyAt)
				}
			} else {
				// Write-buffer approximation: traffic charged now,
				// completion at L1 write latency.
				c.port.WriteData(e.addr, now)
				e.readyAt = now + 3
			}
			e.issued = true
		}
		if !e.issued {
			wake = now + 1
			if newScan == c.tail {
				newScan = pos
			}
			continue
		}
		c.readyBySeq[e.seq&(readyRing-1)] = e.readyAt
		issued++
		// A resolving mispredicted branch releases dispatch after the
		// refill penalty.
		if c.pendingHoldSet && e.seq == c.pendingHoldSeq {
			c.dispatchHold = e.readyAt + uint64(c.cfg.MispredictPenalty)
			c.pendingHoldSet = false
		}
	}
	c.scanAbs = newScan
	if mshrFull {
		for _, t := range c.mshr {
			wake = min(wake, t)
		}
	}
	return wake
}

// missThreshold is the latency above which a load counts as an L2-or-worse
// miss and occupies an MSHR (Table 1: L2 hits complete within 9 cycles).
const missThreshold = 12

func (c *Core) dispatch(now uint64) {
	if now < c.dispatchHold || c.pendingHoldSet {
		c.stats.DispatchStalls++
		return
	}
	for n := 0; n < c.cfg.Width && len(c.fetchQ) > 0; n++ {
		ins := c.fetchQ[0]
		if !c.canDispatch(ins.Class) {
			c.stats.DispatchStalls++
			return
		}
		mem := isMem(ins.Class)
		c.fetchQ = c.fetchQ[:copy(c.fetchQ, c.fetchQ[1:])]
		seq := c.nextSeq
		c.nextSeq++
		e := ruuEntry{
			cls:     ins.Class,
			seq:     seq,
			addr:    ins.Addr,
			readyAt: notIssued,
		}
		// Producers further back than the RUU window have committed and
		// are always ready; recording them would alias into the ring.
		if d := uint64(ins.Dep1); d > 0 && d < seq && d <= uint64(c.cfg.RUUSize) {
			e.depA = seq - d
		}
		if d := uint64(ins.Dep2); d > 0 && d < seq && d <= uint64(c.cfg.RUUSize) {
			e.depB = seq - d
		}
		// Mark the slot in readyBySeq as pending so dependents never
		// see a stale completion from a previous lap of the ring.
		c.readyBySeq[seq&(readyRing-1)] = notIssued
		c.ruu[c.tail&c.ruuMask] = e
		c.tail++
		if mem {
			c.lsqLen++
			if ins.Class == workload.Load {
				c.stats.Loads++
			} else {
				c.stats.Stores++
			}
		}
		if ins.Class == workload.Branch {
			c.stats.Branches++
			if c.bp.Resolve(ins.PC, ins.Taken, ins.Target) {
				c.stats.Mispredicts++
				// Dispatch freezes until this branch resolves in
				// the pipeline plus the refill penalty.
				c.pendingHoldSeq = seq
				c.pendingHoldSet = true
				return
			}
		}
	}
}

func (c *Core) fetch(now uint64) {
	if now < c.fetchReady {
		c.stats.FetchStalls++
		return
	}
	var ins workload.Instr
	for n := 0; n < c.cfg.Width && len(c.fetchQ) < c.cfg.FetchQueue; n++ {
		c.gen.Next(&ins)
		blk := ins.PC.Block()
		if blk != c.lastFetchBlock {
			c.lastFetchBlock = blk
			ready := c.port.FetchInstr(ins.PC, now)
			if ready > now+uint64(c.cfg.L1ILat) {
				// I-side miss: the just-fetched instruction arrives
				// when the block does; stall further fetch.
				c.fetchReady = ready
				c.fetchQ = append(c.fetchQ, ins)
				return
			}
		}
		c.fetchQ = append(c.fetchQ, ins)
	}
}
