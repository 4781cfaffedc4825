package cpu

import (
	"fmt"

	"nucasim/internal/bpred"
	"nucasim/internal/memaddr"
	"nucasim/internal/workload"
)

// RUUEntryState mirrors ruuEntry with exported fields for serialization.
type RUUEntryState struct {
	Cls     workload.Class
	Seq     uint64
	DepA    uint64
	DepB    uint64
	Addr    memaddr.Addr
	ReadyAt uint64
	Issued  bool
}

// State is the complete mutable state of a Core, including its embedded
// instruction generator and branch predictor, so a checkpointed run can
// resume bit-identically. Restore expects a core built with the same
// Config, generator parameters and predictor configuration.
type State struct {
	RUU     []RUUEntryState // whole ring buffer, slot order preserved
	Head    uint64
	Tail    uint64
	ScanAbs uint64
	LSQLen  int

	FetchQ         []workload.Instr
	FetchReady     uint64
	LastFetchBlock memaddr.Addr

	DispatchHold   uint64
	PendingHoldSeq uint64
	PendingHoldSet bool

	ReadyBySeq []uint64
	MSHR       []uint64
	NextSeq    uint64
	Stats      Stats

	Gen  workload.GeneratorState
	Pred bpred.State
}

// Snapshot captures the core's full mutable state.
func (c *Core) Snapshot() State {
	s := State{
		RUU:            make([]RUUEntryState, len(c.ruu)),
		Head:           c.head,
		Tail:           c.tail,
		ScanAbs:        c.scanAbs,
		LSQLen:         c.lsqLen,
		FetchQ:         append([]workload.Instr(nil), c.fetchQ...),
		FetchReady:     c.fetchReady,
		LastFetchBlock: c.lastFetchBlock,
		DispatchHold:   c.dispatchHold,
		PendingHoldSeq: c.pendingHoldSeq,
		PendingHoldSet: c.pendingHoldSet,
		ReadyBySeq:     append([]uint64(nil), c.readyBySeq...),
		MSHR:           append([]uint64(nil), c.mshr...),
		NextSeq:        c.nextSeq,
		Stats:          c.stats,
		Gen:            c.gen.State(),
		Pred:           c.bp.Snapshot(),
	}
	for i, e := range c.ruu {
		s.RUU[i] = RUUEntryState{
			Cls: e.cls, Seq: e.seq, DepA: e.depA, DepB: e.depB,
			Addr: e.addr, ReadyAt: e.readyAt, Issued: e.issued,
		}
	}
	return s
}

// Restore loads a snapshot taken from an identically configured core.
func (c *Core) Restore(s State) error {
	if len(s.RUU) != len(c.ruu) {
		return fmt.Errorf("cpu: state RUU has %d slots, core has %d", len(s.RUU), len(c.ruu))
	}
	if len(s.ReadyBySeq) != len(c.readyBySeq) {
		return fmt.Errorf("cpu: state readyBySeq has %d slots, core has %d", len(s.ReadyBySeq), len(c.readyBySeq))
	}
	if len(s.FetchQ) > c.cfg.FetchQueue {
		return fmt.Errorf("cpu: state fetch queue holds %d > %d entries", len(s.FetchQ), c.cfg.FetchQueue)
	}
	if err := c.gen.Restore(s.Gen); err != nil {
		return err
	}
	if err := c.bp.Restore(s.Pred); err != nil {
		return err
	}
	for i, e := range s.RUU {
		c.ruu[i] = ruuEntry{
			cls: e.Cls, seq: e.Seq, depA: e.DepA, depB: e.DepB,
			addr: e.Addr, readyAt: e.ReadyAt, issued: e.Issued,
		}
	}
	c.head = s.Head
	c.tail = s.Tail
	c.scanAbs = s.ScanAbs
	c.lsqLen = s.LSQLen
	c.fetchQ = append(c.fetchQ[:0], s.FetchQ...)
	c.fetchReady = s.FetchReady
	c.lastFetchBlock = s.LastFetchBlock
	c.dispatchHold = s.DispatchHold
	c.pendingHoldSeq = s.PendingHoldSeq
	c.pendingHoldSet = s.PendingHoldSet
	copy(c.readyBySeq, s.ReadyBySeq)
	c.mshr = append(c.mshr[:0], s.MSHR...)
	c.nextSeq = s.NextSeq
	c.stats = s.Stats
	c.wake = 0
	return nil
}
