package main

import (
	"context"
	"path/filepath"
	"runtime"
	"time"

	"nucasim/internal/bpred"
	"nucasim/internal/core"
	"nucasim/internal/cpu"
	"nucasim/internal/dram"
	"nucasim/internal/hierarchy"
	"nucasim/internal/llc"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// seamTime accumulates calls and host time across one layer seam.
type seamTime struct {
	calls uint64
	busy  time.Duration
}

// orgTimer decorates the llc.Organization seam: every demand access and
// L2 writeback, DRAM model included.
type orgTimer struct {
	llc.Organization
	seamTime
}

func (o *orgTimer) Access(core int, addr memaddr.Addr, write bool, now uint64) (uint64, bool) {
	start := time.Now()
	ready, hit := o.Organization.Access(core, addr, write, now)
	o.busy += time.Since(start)
	o.calls++
	return ready, hit
}

func (o *orgTimer) WritebackFromL2(core int, addr memaddr.Addr, now uint64) {
	start := time.Now()
	o.Organization.WritebackFromL2(core, addr, now)
	o.busy += time.Since(start)
}

// portTimer decorates one core's cpu.Port seam into the L1/L2
// hierarchy; all cores share one accumulator.
type portTimer struct {
	port cpu.Port
	acc  *seamTime
}

func (p portTimer) ReadData(addr memaddr.Addr, now uint64) uint64 {
	start := time.Now()
	ready := p.port.ReadData(addr, now)
	p.acc.busy += time.Since(start)
	p.acc.calls++
	return ready
}

func (p portTimer) WriteData(addr memaddr.Addr, now uint64) uint64 {
	start := time.Now()
	ready := p.port.WriteData(addr, now)
	p.acc.busy += time.Since(start)
	p.acc.calls++
	return ready
}

func (p portTimer) FetchInstr(pc memaddr.Addr, now uint64) uint64 {
	start := time.Now()
	ready := p.port.FetchInstr(pc, now)
	p.acc.busy += time.Since(start)
	p.acc.calls++
	return ready
}

// tracedMachine is the adaptive machine sim.NewMachine builds, assembled
// from the same public constructors in the same order, with the
// organization and port seams wrapped.
type tracedMachine struct {
	*sim.Machine
	org  *orgTimer
	port *seamTime
	gens []*workload.Generator
}

func newTracedMachine(cfg sim.Config, mix []workload.AppParams) *tracedMachine {
	r := rng.New(cfg.Seed)
	mem := dram.New(dram.PrivateConfig())
	adaptive := core.NewAdaptive(core.Config{
		Cores:             cfg.Cores,
		BytesPerCore:      cfg.L3BytesPerCore,
		LocalWays:         4,
		RepartitionPeriod: cfg.RepartitionPeriod,
		ShadowSampleShift: cfg.ShadowSampleShift,
		Latencies:         llc.DefaultLatencies(),
	}, mem)
	t := &tracedMachine{org: &orgTimer{Organization: adaptive}, port: &seamTime{}}
	h := hierarchy.New(hierarchy.Config{Cores: cfg.Cores}, t.org)
	t.Machine = &sim.Machine{Cfg: cfg, Hierarchy: h, Memory: mem, Org: adaptive, Adaptive: adaptive}
	for i := 0; i < cfg.Cores; i++ {
		gen := workload.NewGenerator(mix[i], i, r.Fork(uint64(i)+1))
		t.gens = append(t.gens, gen)
		port := portTimer{port: h.Port(i), acc: t.port}
		t.Cores = append(t.Cores, cpu.New(i, cfg.CPU, gen, port, bpred.New(bpred.Config{})))
	}
	return t
}

// counters is everything read from the traced machine at a phase
// boundary.
type counters struct {
	at     time.Time
	org    seamTime
	port   seamTime
	gen    []uint64
	instr  []uint64
	llc    llc.AccessStats
	mem    dram.Stats
	l1d    [2]uint64 // accesses, hits
	l2     [2]uint64
	repart uint64
}

func (t *tracedMachine) read() counters {
	c := counters{at: time.Now(), org: t.org.seamTime, port: *t.port, llc: t.Org.TotalStats(), mem: t.Memory.Stats, repart: t.Adaptive.Repartitions}
	for i, g := range t.gens {
		c.gen = append(c.gen, g.Count())
		c.instr = append(c.instr, t.Cores[i].Stats().Instructions)
		hs := t.Hierarchy.Stats(i)
		c.l1d[0] += hs.L1D.Accesses
		c.l1d[1] += hs.L1D.Hits
		c.l2[0] += hs.L2D.Accesses + hs.L2I.Accesses
		c.l2[1] += hs.L2D.Hits + hs.L2I.Hits
	}
	return c
}

// runChunks advances the machine in the same 4096-cycle chunks RunContext
// uses.
func (t *tracedMachine) runChunks(cycles uint64) {
	const chunk = 4096
	for done := uint64(0); done < cycles; {
		n := min(uint64(chunk), cycles-done)
		t.Run(n)
		done += n
	}
}

// traceSim is the traced pass of a sim workload, on its adaptive spec:
// untraced reference runs (CPU-profiled), the same run on the traced
// machine, a generator replay, checkpoint round trips and the telemetry
// tax. The traced machine must reproduce the reference exactly.
func traceSim(r *run, w *simWorkload) error {
	ctx := context.Background()
	mix := w.mix()
	cfg := w.config(r.seed, sim.SchemeAdaptive)

	runtime.GC()
	// The reference runs are profiled together: one run at 100 Hz holds
	// too few samples for small packages' shares.
	const profiledRuns = 3
	var ref sim.Result
	shares, err := profileShares(r.work, func() error {
		for i := 0; i < profiledRuns; i++ {
			res, err := sim.RunContext(ctx, cfg, mix)
			if err != nil {
				return err
			}
			if i == 0 {
				ref = res
			}
			r.check(simDigest(res) == simDigest(ref), "reference run %d differs from the first", i)
		}
		return nil
	})
	if !r.check(err == nil, "reference runs: %v", err) {
		return err
	}
	for pkg, share := range shares {
		r.set("pprof."+pkg+".share", share)
	}
	if err := traceHits(r, cfg, mix, ref); err != nil {
		return err
	}

	runtime.GC()
	start := time.Now()
	t := newTracedMachine(cfg, mix)
	t.WarmFunctional(cfg.WarmupInstructions)
	warm := t.read()
	t.runChunks(cfg.WarmupCycles)
	window := t.read()
	t.runChunks(cfg.MeasureCycles)
	end := t.read()

	traced := sim.Result{
		Scheme:          cfg.Scheme,
		LLCTotal:        end.llc,
		Memory:          end.mem,
		PartitionLimits: t.Adaptive.MaxBlocks(),
		Repartitions:    t.Adaptive.Repartitions,
		Evaluations:     t.Adaptive.Evaluations,
	}
	for i, c := range t.Cores {
		traced.PerCoreIPC = append(traced.PerCoreIPC, float64(end.instr[i]-window.instr[i])/float64(cfg.MeasureCycles))
		traced.CoreStats = append(traced.CoreStats, c.Stats())
	}
	r.check(simDigest(traced) == simDigest(ref), "traced run differs from the untraced run: IPC %v vs %v", traced.PerCoreIPC, ref.PerCoreIPC)

	// The generator sits behind a concrete type, so its time is measured
	// by replaying fresh generators (same app, same seed fork) for the
	// same number of Next calls as each phase made.
	warmCounts := make([]uint64, len(mix))
	timedCounts := make([]uint64, len(mix))
	for i := range mix {
		warmCounts[i] = warm.gen[i]
		timedCounts[i] = end.gen[i] - warm.gen[i]
	}
	genWarm, genTimed := replayGenerators(cfg.Seed, mix, warmCounts, timedCounts)

	wallWarm := warm.at.Sub(start)
	wallTimed := end.at.Sub(warm.at)
	wall := end.at.Sub(start)
	cores := uint64(cfg.Cores)
	timedCycles := cfg.WarmupCycles + cfg.MeasureCycles
	steps := timedCycles * cores

	r.set("trace.wall_s", wall.Seconds())
	r.set("sim.warmup_functional_s", wallWarm.Seconds())
	r.set("sim.timed_s", wallTimed.Seconds())
	r.set("sim.ns_per_core_cycle", float64(wallTimed)/float64(steps))

	var instrs uint64
	for _, n := range end.gen {
		instrs += n
	}
	genTotal := genWarm + genTimed
	r.set("workload.instrs", float64(instrs))
	r.set("workload.ns_per_instr", float64(genTotal)/float64(instrs))

	cpuTimed := wallTimed - (end.port.busy - warm.port.busy) - genTimed
	r.set("cpu.steps", float64(steps))
	r.set("cpu.self_ns_per_step", float64(cpuTimed)/float64(steps))

	// Counters are measurement-window deltas: the organization's and the
	// hierarchy's statistics accumulate from construction, warmup included.
	portCalls := end.port.calls - window.port.calls
	portBusy := end.port.busy - window.port.busy
	orgBusy := end.org.busy - window.org.busy
	r.set("hierarchy.calls", float64(portCalls))
	r.set("hierarchy.self_ns_per_call", float64(portBusy-orgBusy)/float64(portCalls))
	r.set("hierarchy.l1d_hit_frac", frac(end.l1d[1]-window.l1d[1], end.l1d[0]-window.l1d[0]))
	r.set("hierarchy.l2_hit_frac", frac(end.l2[1]-window.l2[1], end.l2[0]-window.l2[0]))

	accesses := end.llc.Accesses - window.llc.Accesses
	r.set("llc.accesses", float64(accesses))
	r.set("llc.ns_per_access", float64(orgBusy)/float64(max(accesses, 1)))
	r.set("llc.miss_frac", frac(end.llc.Misses-window.llc.Misses, accesses))
	r.set("llc.remote_hit_frac", frac(end.llc.RemoteHits-window.llc.RemoteHits, accesses))
	r.set("core.repartitions", float64(end.repart-window.repart))

	reads := end.mem.Reads - window.mem.Reads
	r.set("dram.reads", float64(reads))
	r.set("dram.writebacks", float64(end.mem.Writebacks-window.mem.Writebacks))
	r.set("dram.queue_cycles_per_read", frac(end.mem.QueueCycles-window.mem.QueueCycles, reads))
	r.set("dram.utilization", frac(end.mem.BusyCycles-window.mem.BusyCycles, cfg.MeasureCycles))

	// Whole-run host time by layer. The cpu share is the remainder: the
	// core pipeline plus the cycle loop and machine construction.
	llcTime := end.org.busy
	hierTime := end.port.busy - end.org.busy
	cpuTime := wall - end.port.busy - genTotal
	r.set("workload.time_share", genTotal.Seconds()/wall.Seconds())
	r.set("llc.time_share", llcTime.Seconds()/wall.Seconds())
	r.set("hierarchy.time_share", hierTime.Seconds()/wall.Seconds())
	r.set("cpu.time_share", cpuTime.Seconds()/wall.Seconds())

	if err := traceCheckpoint(r, cfg, mix); err != nil {
		return err
	}
	bare, digest, err := telemetryTax(r, cfg, mix)
	if err != nil {
		return err
	}
	r.check(digest == simDigest(ref), "untraced runs differ from the reference run")
	r.set("trace.overhead_ratio", wall.Seconds()/bare.Seconds())
	return nil
}

// traceHits commits the reference result to a fresh cache and reports
// the tail latency of answering its spec from there in process, the
// same way benchSim times hit_p50_ms.
func traceHits(r *run, cfg sim.Config, mix []workload.AppParams, ref sim.Result) error {
	store, err := serve.NewStore(filepath.Join(r.work, "hits"))
	if err != nil {
		return err
	}
	enc, err := serve.EncodeResult(ref)
	if err != nil {
		return err
	}
	if err := commit(store, cfg, mix, enc); err != nil {
		return err
	}
	var hits []float64
	for len(hits) < minHitWindows*hitWindow && r.failed == 0 {
		hits = append(hits, timeHits(r, store, []sim.Config{cfg}, mix, [][]byte{enc})...)
	}
	r.set("hit_p99_ms", windowQuantile(hits, 0.99))
	return nil
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replayGenerators times fresh generators, forked exactly as the machine
// forks them, through each phase's number of Next calls.
func replayGenerators(seed uint64, mix []workload.AppParams, first, second []uint64) (time.Duration, time.Duration) {
	r := rng.New(seed)
	var gens []*workload.Generator
	for i := range mix {
		gens = append(gens, workload.NewGenerator(mix[i], i, r.Fork(uint64(i)+1)))
	}
	var ins workload.Instr
	phase := func(counts []uint64) time.Duration {
		start := time.Now()
		for i, g := range gens {
			for n := counts[i]; n > 0; n-- {
				g.Next(&ins)
			}
		}
		return time.Since(start)
	}
	return phase(first), phase(second)
}

// traceCheckpoint times the warmup checkpoint a sweep forks from: its
// encoded size, and the median encode and decode times.
func traceCheckpoint(r *run, cfg sim.Config, mix []workload.AppParams) error {
	const reps = 5
	ck, err := sim.WarmupCheckpoint(context.Background(), cfg, mix)
	if !r.check(err == nil, "warmup checkpoint: %v", err) {
		return err
	}
	var data []byte
	var enc, dec []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		data, err = ck.Encode()
		enc = append(enc, millis(time.Since(start)))
		if !r.check(err == nil, "checkpoint encode: %v", err) {
			return err
		}
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		_, err := sim.DecodeCheckpoint(data)
		dec = append(dec, millis(time.Since(start)))
		if !r.check(err == nil, "checkpoint decode: %v", err) {
			return err
		}
	}
	r.set("sim.checkpoint_bytes", float64(len(data)))
	r.set("sim.checkpoint_encode_ms", median(enc))
	r.set("sim.checkpoint_decode_ms", median(dec))
	return nil
}

// telemetryTax times untraced runs of cfg bare and with the telemetry a
// served job carries (epoch ring, counters, histograms, runtime samples
// and wall-clock spans), alternating, and reports the telemetry tax. It
// returns the bare median and the runs' common simulated outcome:
// telemetry must not change it.
func telemetryTax(r *run, cfg sim.Config, mix []workload.AppParams) (time.Duration, [32]byte, error) {
	const pairs = 2
	var bare, taxed []float64
	var digest [32]byte
	for i := 0; i < pairs; i++ {
		for _, withTelemetry := range []bool{false, true} {
			c := cfg
			if withTelemetry {
				c.Telemetry = &telemetry.Config{
					Run:           "tax",
					Spans:         telemetry.NewSpanRecorder(telemetry.SpanConfig{Process: "perfbench"}),
					SampleRuntime: true,
				}
			}
			runtime.GC()
			start := time.Now()
			res, err := sim.RunContext(context.Background(), c, mix)
			wall := time.Since(start).Seconds()
			if !r.check(err == nil, "run (telemetry %v): %v", withTelemetry, err) {
				return 0, digest, err
			}
			if i == 0 && !withTelemetry {
				digest = simDigest(res)
			}
			r.check(simDigest(res) == digest, "run (telemetry %v): outcome differs from the bare run", withTelemetry)
			if withTelemetry {
				taxed = append(taxed, wall)
			} else {
				bare = append(bare, wall)
			}
		}
	}
	r.set("telemetry.tax_ratio", median(taxed)/median(bare))
	return time.Duration(median(bare) * float64(time.Second)), digest, nil
}
