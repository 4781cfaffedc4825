// Package experiment regenerates every table and figure of the paper's
// evaluation (Sections 3-4). Each Fig* function runs the corresponding
// experiment on the simulator and returns a stats.Table whose rows/series
// mirror what the paper plots; cmd/experiments prints them and
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The experiments are statistical: the paper builds workloads by drawing
// four random applications per experiment and fast-forwarding each by a
// random amount (§3). Options.Seed pins the whole procedure, so every
// figure is exactly reproducible.
//
// Every simulated figure is a point list plus a reducer: its trials (a
// mix and its seed) are crossed with its variants (the sim.Config fields
// the figure changes) and run by one sweep.RunLocal call, the engine
// cmd/sweep also uses. Figure 3 is analytic and simulates nothing.
package experiment

import (
	"context"
	"fmt"

	"nucasim/internal/cache"
	"nucasim/internal/memaddr"
	"nucasim/internal/rng"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/sweep"
	"nucasim/internal/workload"
)

// Options sizes an experiment run. The zero value gives laptop-scale runs
// (a few minutes per figure); raise the window fields toward the paper's
// 200 M cycles for publication-scale runs.
type Options struct {
	Seed  uint64
	Mixes int // random 4-app experiments per figure (default 8)

	WarmupInstructions uint64 // default 1_000_000 per core
	WarmupCycles       uint64 // default 100_000
	MeasureCycles      uint64 // default 600_000

	// Local is handed to sweep.RunLocal for every simulated figure: the
	// invariant checker and the per-point observability (trace and span
	// wiring) of cmd/experiments -check-invariants, -trace-out and
	// -span-out. Points are labelled "<scheme>-seed<N>".
	Local sweep.LocalOptions
}

// cores is the paper's CMP width; only CoreScaling leaves it.
const cores = 4

func (o Options) withDefaults() Options {
	if o.Mixes == 0 {
		o.Mixes = 8
	}
	if o.WarmupInstructions == 0 {
		o.WarmupInstructions = 1_000_000
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 100_000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 600_000
	}
	return o
}

// trial is one experiment: a mix and the seed it runs under.
type trial struct {
	mix  []workload.AppParams
	seed uint64
}

// draws reproduces the paper's experiment construction: Mixes draws of n
// random applications (with replacement) from the pool, draw i seeded
// at Seed+101·i.
func (o Options) draws(pool []workload.AppParams, n int) []trial {
	r := rng.New(o.Seed)
	ts := make([]trial, o.Mixes)
	for i := range ts {
		ts[i] = trial{workload.RandomMix(r, pool, n), o.Seed + uint64(i)*101}
	}
	return ts
}

// schemes returns one variant per scheme, each otherwise equal to base.
func schemes(base sim.Config, ss ...sim.Scheme) []sim.Config {
	vs := make([]sim.Config, len(ss))
	for i, s := range ss {
		vs[i] = base
		vs[i].Scheme = s
	}
	return vs
}

// run crosses every trial with every variant (a sim.Config holding only
// the fields a figure changes) into one point list, runs it through
// sweep.RunLocal and returns the results as [trial][variant]. A failed
// point — an invariant violation under Local.CheckInvariants — panics,
// as sim.Run does.
func (o Options) run(trials []trial, variants []sim.Config) [][]sim.Result {
	points := make([]sweep.Point, 0, len(trials)*len(variants))
	for _, t := range trials {
		for _, v := range variants {
			cfg := v
			cfg.Cores = len(t.mix)
			cfg.Seed = t.seed
			cfg.WarmupInstructions = o.WarmupInstructions
			cfg.WarmupCycles = o.WarmupCycles
			cfg.MeasureCycles = o.MeasureCycles
			p, err := sweep.NewPoint(fmt.Sprintf("%s-seed%d", cfg.Scheme, t.seed), cfg, t.mix)
			if err != nil {
				panic(err)
			}
			points = append(points, p)
		}
	}
	results, _, err := sweep.RunLocal(context.Background(), points, o.Local)
	if err != nil {
		panic(err)
	}
	byTrial := make([][]sim.Result, len(trials))
	for i := range byTrial {
		byTrial[i] = results[i*len(variants) : (i+1)*len(variants)]
	}
	return byTrial
}

// Fig3 reproduces Figure 3: the number of L3 misses as a function of
// blocks per set (associativity at a fixed 4096 sets), for five
// applications. The reference streams are filtered through Table 1 L1/L2
// caches exactly as an L3 would see them. Values are misses per thousand
// post-L2 accesses.
func Fig3(opt Options) *stats.Table {
	opt = opt.withDefaults()
	apps := []string{"mcf", "parser", "twolf", "vpr", "gzip"}
	ways := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	cols := make([]string, len(ways))
	for i, w := range ways {
		cols[i] = fmt.Sprintf("%d-way", w)
	}
	t := stats.NewTable("Figure 3: L3 misses vs blocks per set (misses per 1000 L3 accesses)", cols...)
	for _, name := range apps {
		p, ok := workload.ByName(name)
		if !ok {
			panic("experiment: unknown app " + name)
		}
		row := make([]float64, len(ways))
		for i, w := range ways {
			row[i] = MissRatioAtWays(p, w, opt.Seed) * 1000
		}
		t.AddRow(name, row...)
	}
	return t
}

// MissRatioAtWays replays one app's data stream through Table 1 L1D/L2D
// filters into an isolated 4096-set probe cache at the given
// associativity — the Figure 3 measurement. Exposed for cmd/sweep.
func MissRatioAtWays(p workload.AppParams, ways int, seed uint64) float64 {
	g := workload.NewGenerator(p, 0, rng.New(seed+0xF16))
	l1 := cache.New("l1", memaddr.NewGeometry(64<<10, 2))
	l2 := cache.New("l2", memaddr.NewGeometry(256<<10, 4))
	probe := cache.New("probe", memaddr.NewGeometrySets(4096, ways))
	var ins workload.Instr
	for phase := 0; phase < 2; phase++ {
		probe.Stats = cache.Stats{}
		for i := 0; i < 600_000; i++ {
			g.Next(&ins)
			if ins.Class != workload.Load && ins.Class != workload.Store {
				continue
			}
			if hit, _ := l1.Access(ins.Addr, false); hit {
				continue
			}
			l1.Install(ins.Addr, false, 0)
			if hit, _ := l2.Access(ins.Addr, false); hit {
				continue
			}
			l2.Install(ins.Addr, false, 0)
			if hit, _ := probe.Access(ins.Addr, false); !hit {
				probe.Install(ins.Addr, false, 0)
			}
		}
	}
	if probe.Stats.Accesses == 0 {
		return 0
	}
	return float64(probe.Stats.Misses) / float64(probe.Stats.Accesses)
}

// Fig5 reproduces Figure 5: each application's last-level cache accesses
// per thousand cycles (its L2 data misses), measured under the private
// baseline with the application on core 0 and idle programs on the other
// cores (the classification is a property of the application, not of bus
// contention). Applications above the threshold (9 per 1000 cycles) are
// classified last-level cache intensive.
func Fig5(opt Options) *stats.Table {
	opt = opt.withDefaults()
	suite := workload.Suite()
	trials := make([]trial, len(suite))
	for i, p := range suite {
		mix := []workload.AppParams{p}
		for len(mix) < cores {
			mix = append(mix, workload.Idle())
		}
		trials[i] = trial{mix, opt.Seed}
	}
	results := opt.run(trials, schemes(sim.Config{}, sim.SchemePrivate))
	t := stats.NewTable(fmt.Sprintf("Figure 5: L3 accesses per 1000 cycles (intensive if > %.0f)", IntensiveThreshold),
		"acc/kcycle", "intensive")
	for i, p := range suite {
		acc := results[i][0].LLCAccessesPerKCycle[0]
		intensive := 0.0
		if acc > IntensiveThreshold {
			intensive = 1
		}
		t.AddRow(p.Name, acc, intensive)
	}
	return t
}

// IntensiveThreshold is the Figure 5 classification threshold, the
// paper's §4.1 criterion: more than nine last-level cache accesses per
// thousand cycles. The measured distribution is strongly bimodal
// (non-intensive apps below 5, intensive above 18; see EXPERIMENTS.md),
// so the classification is insensitive to the exact cutoff.
const IntensiveThreshold = 9.0

// Fig6Result carries the Figure 6 table plus the paper's headline
// aggregates (§4.2: +21 % harmonic / +13 % mean vs private; +2 % harmonic
// / +5 % mean vs shared).
type Fig6Result struct {
	Table *stats.Table

	HarmonicGainVsPrivatePct float64
	MeanGainVsPrivatePct     float64
	HarmonicGainVsSharedPct  float64
	MeanGainVsSharedPct      float64
}

// Fig6 reproduces Figure 6: the harmonic mean of per-core IPC for each
// random 4-app experiment drawn from the LLC-intensive pool, under
// private, shared, and the adaptive scheme, sorted by the adaptive
// scheme's speedup over private.
func Fig6(opt Options) Fig6Result {
	opt = opt.withDefaults()
	trials := opt.draws(workload.Intensive(), cores)
	results := opt.run(trials, schemes(sim.Config{}, sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive))
	t := stats.NewTable("Figure 6: harmonic mean IPC per experiment (intensive apps)",
		"private", "shared", "adaptive", "adaptive/private")

	var privHM, sharedHM, adaptHM stats.Accumulator
	var privMean, sharedMean, adaptMean stats.Accumulator
	for i, tr := range trials {
		rp, rs, ra := results[i][0], results[i][1], results[i][2]
		t.AddRow(workload.MixNames(tr.mix),
			rp.HarmonicIPC, rs.HarmonicIPC, ra.HarmonicIPC,
			stats.Speedup(ra.HarmonicIPC, rp.HarmonicIPC))
		privHM.Add(rp.HarmonicIPC)
		sharedHM.Add(rs.HarmonicIPC)
		adaptHM.Add(ra.HarmonicIPC)
		privMean.Add(rp.MeanIPC)
		sharedMean.Add(rs.MeanIPC)
		adaptMean.Add(ra.MeanIPC)
	}
	t.SortByColumn(3)
	return Fig6Result{
		Table:                    t,
		HarmonicGainVsPrivatePct: stats.PercentGain(adaptHM.Mean(), privHM.Mean()),
		MeanGainVsPrivatePct:     stats.PercentGain(adaptMean.Mean(), privMean.Mean()),
		HarmonicGainVsSharedPct:  stats.PercentGain(adaptHM.Mean(), sharedHM.Mean()),
		MeanGainVsSharedPct:      stats.PercentGain(adaptMean.Mean(), sharedMean.Mean()),
	}
}

// speedupFigure runs the Figures 7-9 experiment: mixes drawn from pool
// under private, shared, adaptive and 4×-sized private caches with the
// given L3 bytes per core (0 = Table 1), reduced to each application's
// mean per-core IPC speedup over private, in pool order. Applications
// never drawn into a mix get no row.
func speedupFigure(opt Options, title string, pool []workload.AppParams, l3BytesPerCore int) *stats.Table {
	opt = opt.withDefaults()
	trials := opt.draws(pool, cores)
	variants := schemes(sim.Config{L3BytesPerCore: l3BytesPerCore},
		sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive, sim.SchemePrivate4x)
	results := opt.run(trials, variants)

	// Per application, one accumulator per non-private variant.
	acc := map[string][]stats.Accumulator{}
	for i, tr := range trials {
		for core, app := range tr.mix {
			a := acc[app.Name]
			if a == nil {
				a = make([]stats.Accumulator, len(variants)-1)
				acc[app.Name] = a
			}
			base := results[i][0].PerCoreIPC[core]
			for v := range a {
				a[v].Add(stats.Speedup(results[i][v+1].PerCoreIPC[core], base))
			}
		}
	}

	cols := make([]string, 0, len(variants))
	for _, v := range variants[1:] {
		cols = append(cols, string(v.Scheme))
	}
	t := stats.NewTable(title, append(cols, "samples")...)
	for _, p := range pool {
		a, ok := acc[p.Name]
		if !ok {
			continue
		}
		row := make([]float64, 0, len(a)+1)
		for v := range a {
			row = append(row, a[v].Mean())
		}
		t.AddRow(p.Name, append(row, float64(a[0].N()))...)
	}
	return t
}

// Fig7 reproduces Figure 7: per-application speedup over private caches
// for shared, adaptive and 4×-sized private caches, for the LLC-intensive
// applications (mixes drawn from the intensive pool).
func Fig7(opt Options) *stats.Table {
	return speedupFigure(opt, "Figure 7: speedup vs private (LLC-intensive apps)",
		workload.Intensive(), 0)
}

// Fig8 reproduces Figure 8: per-application speedups over private caches
// with mixes drawn from the full suite (both categories).
func Fig8(opt Options) *stats.Table {
	return speedupFigure(opt, "Figure 8: speedup vs private (all apps)",
		workload.Suite(), 0)
}

// Fig9 reproduces Figure 9: the Figure 7 experiment with a doubled
// last-level cache (8 MB aggregate — 2 MB private partitions), where the
// adaptive scheme's constraints can hurt because capacity is ample.
func Fig9(opt Options) *stats.Table {
	return speedupFigure(opt, "Figure 9: speedup vs private with 8 MB L3 (2 MB per core)",
		workload.Intensive(), 2<<20)
}

// Fig10Result carries the Figure 10 table and the per-scheme average
// harmonic-IPC speedups over private under scaled technology.
type Fig10Result struct {
	Table       *stats.Table
	AvgShared   float64
	AvgAdaptive float64
}

// Fig10 reproduces Figure 10: the impact of technology scaling (§4.5).
// All latencies grow per Table 1's scaled column; each experiment reports
// harmonic-IPC speedups of shared and adaptive over private at the scaled
// technology. The paper's claim: the adaptive scheme has the highest
// average gain because it removes the most (now slower) memory accesses.
func Fig10(opt Options) Fig10Result {
	opt = opt.withDefaults()
	trials := opt.draws(workload.Intensive(), cores)
	results := opt.run(trials, schemes(sim.Config{Scaled: true}, sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive))
	t := stats.NewTable("Figure 10: technology scaling — harmonic IPC speedup vs private (scaled latencies)",
		"shared", "adaptive")
	var sAcc, aAcc stats.Accumulator
	for i, tr := range trials {
		rp, rs, ra := results[i][0], results[i][1], results[i][2]
		s := stats.Speedup(rs.HarmonicIPC, rp.HarmonicIPC)
		a := stats.Speedup(ra.HarmonicIPC, rp.HarmonicIPC)
		t.AddRow(workload.MixNames(tr.mix), s, a)
		sAcc.Add(s)
		aAcc.Add(a)
	}
	t.AddRow("average", sAcc.Mean(), aAcc.Mean())
	return Fig10Result{Table: t, AvgShared: sAcc.Mean(), AvgAdaptive: aAcc.Mean()}
}

// Fig11 reproduces Figure 11: the adaptive scheme's harmonic-IPC speedup
// over the Chang & Sohi-style "random replacement" baseline on
// LLC-intensive mixes, where controlled sharing should win clearly.
func Fig11(opt Options) *stats.Table {
	return adaptiveVsCoop(opt, "Figure 11: adaptive vs random replacement (intensive apps)",
		workload.Intensive())
}

// Fig12 reproduces Figure 12: the same comparison with mixes drawn from
// both categories, where many apps ignore the L3 and the two schemes come
// out close.
func Fig12(opt Options) *stats.Table {
	return adaptiveVsCoop(opt, "Figure 12: adaptive vs random replacement (all apps)",
		workload.Suite())
}

func adaptiveVsCoop(opt Options, title string, pool []workload.AppParams) *stats.Table {
	opt = opt.withDefaults()
	trials := opt.draws(pool, cores)
	results := opt.run(trials, schemes(sim.Config{}, sim.SchemeCoop, sim.SchemeAdaptive))
	t := stats.NewTable(title, "coop", "adaptive", "adaptive/coop")
	var rel, coopAcc, adaptAcc stats.Accumulator
	for i, tr := range trials {
		rc, ra := results[i][0], results[i][1]
		sp := stats.Speedup(ra.HarmonicIPC, rc.HarmonicIPC)
		t.AddRow(workload.MixNames(tr.mix), rc.HarmonicIPC, ra.HarmonicIPC, sp)
		rel.Add(sp)
		coopAcc.Add(rc.HarmonicIPC)
		adaptAcc.Add(ra.HarmonicIPC)
	}
	t.SortByColumn(2)
	t.AddRow("average", coopAcc.Mean(), adaptAcc.Mean(), rel.Mean())
	return t
}

// SamplingResult compares full shadow tags against 1/16 sampling (§4.6).
type SamplingResult struct {
	Table               *stats.Table
	MeanIPCDeltaPct     float64 // paper: +0.1 %
	HarmonicIPCDeltaPct float64 // paper: -0.1 %
}

// ShadowSampling reproduces §4.6: the adaptive scheme with shadow tags in
// every set versus only the 1/16 of sets with the lowest index.
func ShadowSampling(opt Options) SamplingResult {
	opt = opt.withDefaults()
	trials := opt.draws(workload.Intensive(), cores)
	results := opt.run(trials, []sim.Config{
		{Scheme: sim.SchemeAdaptive},
		{Scheme: sim.SchemeAdaptive, ShadowSampleShift: 4},
	})
	t := stats.NewTable("Shadow-tag sampling (§4.6): harmonic IPC, full vs 1/16 of sets",
		"full", "sampled", "sampled/full")
	var full, sampled stats.Accumulator
	var fullM, sampledM stats.Accumulator
	for i, tr := range trials {
		rf, rs := results[i][0], results[i][1]
		t.AddRow(workload.MixNames(tr.mix), rf.HarmonicIPC, rs.HarmonicIPC,
			stats.Speedup(rs.HarmonicIPC, rf.HarmonicIPC))
		full.Add(rf.HarmonicIPC)
		sampled.Add(rs.HarmonicIPC)
		fullM.Add(rf.MeanIPC)
		sampledM.Add(rs.MeanIPC)
	}
	return SamplingResult{
		Table:               t,
		MeanIPCDeltaPct:     stats.PercentGain(sampledM.Mean(), fullM.Mean()),
		HarmonicIPCDeltaPct: stats.PercentGain(sampled.Mean(), full.Mean()),
	}
}

// AnecdoteResult reproduces the §4.3 wupwise/ammp case study.
type AnecdoteResult struct {
	Table            *stats.Table
	WupwiseSlowdown  float64 // adaptive wupwise IPC / private wupwise IPC (< 1)
	AmmpSpeedup      float64 // adaptive ammp IPC / private ammp IPC (> 1)
	HarmonicAdaptive float64
	HarmonicPrivate  float64
}

// Anecdote runs the 3×ammp + 1×wupwise experiment of §4.3: the adaptive
// scheme deliberately sacrifices the fast wupwise to speed up the three
// cache-starved ammp copies, raising the harmonic mean.
func Anecdote(opt Options) AnecdoteResult {
	opt = opt.withDefaults()
	ammp, _ := workload.ByName("ammp")
	wupwise, _ := workload.ByName("wupwise")
	mix := []workload.AppParams{wupwise, ammp, ammp, ammp}
	results := opt.run([]trial{{mix, opt.Seed}}, schemes(sim.Config{}, sim.SchemePrivate, sim.SchemeAdaptive))
	rp, ra := results[0][0], results[0][1]
	t := stats.NewTable("§4.3 anecdote: wupwise + 3×ammp", "private IPC", "adaptive IPC")
	for core, name := range []string{"wupwise", "ammp-1", "ammp-2", "ammp-3"} {
		t.AddRow(name, rp.PerCoreIPC[core], ra.PerCoreIPC[core])
	}
	t.AddRow("harmonic", rp.HarmonicIPC, ra.HarmonicIPC)
	return AnecdoteResult{
		Table:            t,
		WupwiseSlowdown:  stats.Speedup(ra.PerCoreIPC[0], rp.PerCoreIPC[0]),
		AmmpSpeedup:      stats.Speedup(ra.PerCoreIPC[1], rp.PerCoreIPC[1]),
		HarmonicAdaptive: ra.HarmonicIPC,
		HarmonicPrivate:  rp.HarmonicIPC,
	}
}
