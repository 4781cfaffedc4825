package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/workload"
)

// simWorkload is an in-process workload: one application mix simulated
// under a list of organizations with a fixed warmup and window. The
// windows are half the Table 1 defaults, keeping their proportions: a
// shared host's speed wanders by tens of percent from second to second,
// and twice the runs per measured period keep the medians steady.
type simWorkload struct {
	name          string
	apps          []string
	schemes       []sim.Scheme
	warmupInstrs  uint64
	warmupCycles  uint64
	measureCycles uint64
}

var simWorkloads = map[string]*simWorkload{
	// Cores sit stalled on the LLC and DRAM: this exercises core, llc
	// and dram and the idle core-steps an event-driven loop would skip,
	// under every organization a baseline refactor may touch.
	"membound": {
		name:          "membound",
		apps:          []string{"ammp", "art", "mcf", "swim"},
		schemes:       sim.Schemes(),
		warmupInstrs:  500_000,
		warmupCycles:  50_000,
		measureCycles: 500_000,
	},
	// High IPC and hardly any LLC traffic: the workload generator and the
	// cpu dispatch/issue path dominate. An LLC or idle-skip optimisation
	// must leave this unchanged.
	"compute": {
		name:          "compute",
		apps:          []string{"gcc", "crafty", "eon", "mesa"},
		schemes:       []sim.Scheme{sim.SchemeAdaptive},
		warmupInstrs:  500_000,
		warmupCycles:  50_000,
		measureCycles: 500_000,
	},
}

func (w *simWorkload) mix() []workload.AppParams {
	mix := make([]workload.AppParams, len(w.apps))
	for i, name := range w.apps {
		p, ok := workload.ByName(name)
		if !ok {
			panic("perfbench: unknown application " + name)
		}
		mix[i] = p
	}
	return mix
}

// config spells every field out, so the traced machine (which cannot
// apply sim's defaults) builds exactly what RunContext builds.
func (w *simWorkload) config(seed uint64, scheme sim.Scheme) sim.Config {
	return sim.Config{
		Cores:              len(w.apps),
		Scheme:             scheme,
		Seed:               seed,
		WarmupInstructions: w.warmupInstrs,
		WarmupCycles:       w.warmupCycles,
		MeasureCycles:      w.measureCycles,
		L3BytesPerCore:     1 << 20,
	}
}

// sweepSpec is the workload's warmup-sharing sweep: the adaptive
// organization over a measure_cycles axis, one warmup for both points.
func (w *simWorkload) sweepSpec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name: w.name,
		Base: sweep.Base{
			Scheme:             string(sim.SchemeAdaptive),
			Apps:               w.apps,
			Seed:               seed,
			WarmupInstructions: w.warmupInstrs,
			WarmupCycles:       w.warmupCycles,
		},
		Axes: sweep.Axes{MeasureCycles: []uint64{w.measureCycles / 4, w.measureCycles / 2}},
	}
}

// simulatedInstrs counts what a run simulated: the functional warmup of
// every core plus every instruction committed in timed cycles.
func simulatedInstrs(cfg sim.Config, res sim.Result) uint64 {
	n := uint64(len(res.CoreStats)) * cfg.WarmupInstructions
	for _, cs := range res.CoreStats {
		n += cs.Instructions
	}
	return n
}

// simDigest fingerprints the simulated outcome of a run — everything but
// observability output — so runs with and without telemetry or tracing
// compare equal exactly when the simulated machine behaved identically.
func simDigest(res sim.Result) [32]byte {
	data, err := json.Marshal(struct {
		IPC          []float64
		Core         any
		LLC          any
		Memory       any
		Limits       []int
		Repartitions uint64
		Evaluations  uint64
	}{res.PerCoreIPC, res.CoreStats, res.LLCTotal, res.Memory, res.PartitionLimits, res.Repartitions, res.Evaluations})
	if err != nil {
		panic(err)
	}
	return sha256.Sum256(data)
}

// benchSim measures a sim workload end to end. A round runs every
// organization once and one in-process sweep, so each metric samples the
// whole measured period. Rounds repeat until the period is over, at least
// twice, so every result is checked against an earlier run of its spec.
func benchSim(r *run, w *simWorkload) error {
	ctx := context.Background()
	mix := w.mix()

	store, err := serve.NewStore(r.work)
	if err != nil {
		return err
	}
	var specs []sim.Config
	for _, s := range w.schemes {
		specs = append(specs, w.config(r.seed, s))
	}
	first := make([][]byte, len(specs))   // EncodeResult bytes of each spec's first run
	cpus := make([][]float64, len(specs)) // CPU seconds per run
	mips := make([][]float64, len(specs))

	// Set-up and cache hits are short, so a noisy moment on a shared host
	// would sway them; they are sampled after every run and sweep instead,
	// across the whole measured period.
	var setups, hits []float64
	probe := func() {
		for k := 0; k < setupsPerProbe; k++ {
			runtime.GC()
			t := time.Now()
			for _, cfg := range specs {
				sim.NewMachine(cfg, mix)
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		hits = append(hits, timeHits(r, store, specs, mix, first)...)
	}

	points, err := sweep.Expand(w.sweepSpec(r.seed), 0)
	if err != nil {
		return err
	}
	var sweepCPUs []float64
	var sweepFirst [][32]byte

	end := r.deadline()
	var lastRound time.Duration
	for round := 0; round < 2 || time.Now().Add(lastRound).Before(end); round++ {
		roundStart := time.Now()
		for i, cfg := range specs {
			runtime.GC()
			c := selfCPU()
			res, err := sim.RunContext(ctx, cfg, mix)
			used := selfCPU() - c
			if !r.check(err == nil, "%s run: %v", cfg.Scheme, err) {
				continue
			}
			cpus[i] = append(cpus[i], used.Seconds())
			mips[i] = append(mips[i], float64(simulatedInstrs(cfg, res))/used.Seconds()/1e6)
			enc, err := serve.EncodeResult(res)
			if err != nil {
				return err
			}
			if first[i] == nil {
				first[i] = enc
				if err := commit(store, cfg, mix, enc); err != nil {
					return err
				}
			} else {
				r.check(bytes.Equal(enc, first[i]), "%s run %d: result differs from the first run of the same spec", cfg.Scheme, round)
			}
			probe()
		}

		runtime.GC()
		c := selfCPU()
		results, _, err := sweep.RunLocal(ctx, points, sweep.LocalOptions{})
		used := selfCPU() - c
		if r.check(err == nil, "sweep: %v", err) {
			sweepCPUs = append(sweepCPUs, used.Seconds())
			var digests [][32]byte
			for _, res := range results {
				digests = append(digests, simDigest(res))
			}
			if sweepFirst == nil {
				sweepFirst = digests
			} else {
				r.check(fmt.Sprint(digests) == fmt.Sprint(sweepFirst), "sweep in round %d: results differ from the first sweep", round)
			}
		}
		probe()
		lastRound = time.Since(roundStart)
	}

	// Per organization the median, so the figure does not depend on how
	// many rounds fit, then the mean over organizations: the median of
	// five would be one organization's figure and carry all of its noise.
	var runP50, mipsP50 []float64
	for i := range specs {
		if len(cpus[i]) > 0 {
			runP50 = append(runP50, median(cpus[i]))
			mipsP50 = append(mipsP50, median(mips[i]))
		}
	}
	if len(runP50) == 0 || len(sweepCPUs) == 0 {
		return fmt.Errorf("no run or sweep completed")
	}
	r.set("run_p50_s", mean(runP50))
	r.set("sim_mips", mean(mipsP50))
	r.set("sweep_s", median(sweepCPUs))
	for len(hits) < minHitWindows*hitWindow && r.failed == 0 {
		probe()
	}
	r.set("setup_s", median(setups))
	r.set("hit_p50_ms", windowQuantile(hits, 0.50))

	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// hitWindow is the sample count over which one percentile of in-process
// hits is taken, so ten samples lie beyond p99; a run times at least
// minHitWindows windows.
const hitWindow, minHitWindows = 1000, 5

// timeHits answers the committed specs (those with a first result) from
// the cache, round robin, hitWarmup+hitsPerProbe times, checks every
// body against the first result and returns the timed latencies in ms.
func timeHits(r *run, store *serve.Store, specs []sim.Config, mix []workload.AppParams, first [][]byte) []float64 {
	// A batch allocates a few megabytes; with the collector paused it
	// times the hit path itself, not this process's other garbage.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var hits []float64
	for n := -hitWarmup; n < hitsPerProbe; n++ {
		i := (n + hitWarmup) % len(specs)
		if first[i] == nil {
			continue
		}
		t := time.Now()
		hash, err := sim.SpecHash(specs[i], mix)
		var body []byte
		if err == nil {
			body, err = store.ReadResult(hash)
		}
		elapsed := time.Since(t)
		if r.check(err == nil && bytes.Equal(body, first[i]), "cache hit (%s): err=%v", specs[i].Scheme, err) && n >= 0 {
			hits = append(hits, millis(elapsed))
		}
	}
	return hits
}

// Each probe after a run or sweep times this many set-ups and one window
// of in-process cache hits. The first hitWarmup hits of a batch refill
// the caches a simulation run evicted and are checked but not timed: a
// served cache sees a stream of hits, not one after each simulation.
const setupsPerProbe, hitsPerProbe, hitWarmup = 5, hitWindow, 20

// windowQuantile is the interquartile mean, over consecutive windows of
// hitWindow samples, of each window's q-quantile. An in-process hit
// takes tens of microseconds, so one burst of host interference would
// otherwise set the run's tail; this way it moves one window's figure,
// which the trimming drops. Window figures fall in two clusters, as a
// shared host's two vCPUs often run at different speeds: a median would
// jump between the clusters as their mix shifts from run to run, where
// the mean of the middle half moves in proportion.
func windowQuantile(xs []float64, q float64) float64 {
	var perWindow []float64
	for len(xs) >= hitWindow {
		perWindow = append(perWindow, quantile(slices.Clone(xs[:hitWindow]), q))
		xs = xs[hitWindow:]
	}
	sort.Float64s(perWindow)
	n := len(perWindow)
	return mean(perWindow[n/4 : n-n/4])
}

// commit stores a result in the content-addressed cache the way the
// service does: canonical spec first, then the result.
func commit(store *serve.Store, cfg sim.Config, mix []workload.AppParams, result []byte) error {
	spec, err := sim.CanonicalSpec(cfg, mix)
	if err != nil {
		return err
	}
	hash, err := sim.SpecHash(cfg, mix)
	if err != nil {
		return err
	}
	if err := store.PutSpec(hash, spec); err != nil {
		return err
	}
	return store.PutResult(hash, result, nil)
}
