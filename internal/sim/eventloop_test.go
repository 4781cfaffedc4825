package sim

import (
	"fmt"
	"reflect"
	"testing"

	"nucasim/internal/cpu"
)

// stepEveryCycle is the reference the event-driven Machine.Run must
// reproduce: every core steps every cycle, in index order.
func stepEveryCycle(m *Machine, cycles uint64) {
	for end := m.now + cycles; m.now < end; m.now++ {
		for _, c := range m.Cores {
			c.Step(m.now)
		}
	}
}

// TestEventLoopMatchesStepEveryCycle drives one machine with the
// reference loop and a twin with Machine.Run in uneven chunks, and
// requires identical core, LLC and DRAM statistics at every chunk
// boundary, and identical core state (the MSHR file included) at every
// long chunk's end. It covers every organization and the core
// configurations whose limits decide when a core can next change state.
func TestEventLoopMatchesStepEveryCycle(t *testing.T) {
	type tc struct {
		name   string
		scheme Scheme
		cpu    cpu.Config
	}
	var cases []tc
	for _, s := range Schemes() {
		cases = append(cases, tc{string(s), s, cpu.Config{}})
	}
	for _, c := range []struct {
		name string
		cfg  cpu.Config
	}{
		{"ruu8", cpu.Config{RUUSize: 8}},
		{"ruu96", cpu.Config{RUUSize: 96}},
		{"mshr1", cpu.Config{MSHRs: 1}},
		{"lsq8", cpu.Config{LSQSize: 8}},
		{"memports1", cpu.Config{MemPorts: 1}},
		{"width1", cpu.Config{Width: 1}},
		{"fetchq1", cpu.Config{FetchQueue: 1}},
		{"mispredict40", cpu.Config{MispredictPenalty: 40}},
	} {
		cases = append(cases, tc{"adaptive-" + c.name, SchemeAdaptive, c.cfg})
	}

	// Three memory-bound apps and a branchy one with I-side misses, so
	// MSHR, dispatch-hold and fetch stalls all occur.
	mix := mixOf(t, "ammp", "art", "mcf", "gcc")
	chunks := []uint64{1, 7, 4096}
	const total = 30_000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Scheme: c.scheme, Seed: 3, CPU: c.cpu}
			ref, ev := NewMachine(cfg, mix), NewMachine(cfg, mix)
			ref.WarmFunctional(50_000)
			ev.WarmFunctional(50_000)
			for i, done := 0, uint64(0); done < total; i++ {
				n := min(chunks[i%len(chunks)], total-done)
				stepEveryCycle(ref, n)
				ev.Run(n)
				done += n
				if err := sameMachine(ref, ev, n == 4096); err != nil {
					t.Fatalf("after %d cycles (chunk %d): %v", done, i, err)
				}
			}
			var stalls cpu.Stats
			for _, core := range ev.Cores {
				s := core.Stats()
				stalls.FetchStalls += s.FetchStalls
				stalls.DispatchStalls += s.DispatchStalls
				stalls.Mispredicts += s.Mispredicts
			}
			if stalls.FetchStalls == 0 || stalls.DispatchStalls == 0 || stalls.Mispredicts == 0 {
				t.Fatalf("stall paths under-exercised: %+v", stalls)
			}
		})
	}
}

// sameMachine compares what a run reports and, with full, every core's
// complete state.
func sameMachine(ref, ev *Machine, full bool) error {
	if ref.now != ev.now {
		return fmt.Errorf("clock %d vs %d", ev.now, ref.now)
	}
	for i := range ref.Cores {
		if a, b := ref.Cores[i].Stats(), ev.Cores[i].Stats(); a != b {
			return fmt.Errorf("core %d stats:\nevent    %+v\nreference %+v", i, b, a)
		}
		if full && !reflect.DeepEqual(ref.Cores[i].Snapshot(), ev.Cores[i].Snapshot()) {
			return fmt.Errorf("core %d state differs", i)
		}
	}
	if a, b := ref.Org.TotalStats(), ev.Org.TotalStats(); a != b {
		return fmt.Errorf("LLC stats:\nevent    %+v\nreference %+v", b, a)
	}
	if ref.Memory.Stats != ev.Memory.Stats {
		return fmt.Errorf("memory stats:\nevent    %+v\nreference %+v", ev.Memory.Stats, ref.Memory.Stats)
	}
	return nil
}
