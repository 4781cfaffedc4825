package experiment

import (
	"fmt"

	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/workload"
)

// ParallelResult carries the future-work study on shared-memory parallel
// workloads.
type ParallelResult struct {
	Table *stats.Table
	// AdaptiveVsPrivate is the average harmonic-IPC speedup of the
	// adaptive scheme over private caches across the parallel apps.
	AdaptiveVsPrivate float64
	// SharedVsPrivate is the same for the monolithic shared cache.
	SharedVsPrivate float64
}

// ParallelWorkloads tests the paper's §3 hypothesis — "the new scheme
// will be effective also for such [parallel] workloads" — by running each
// synthetic parallel application with one thread per core. Private caches
// replicate the shared data per core (each private L3 fetches its own
// copy); the shared cache and the adaptive scheme keep a single copy that
// every thread hits, so both should beat private, with the adaptive
// scheme additionally protecting each thread's private state.
func ParallelWorkloads(opt Options) ParallelResult {
	opt = opt.withDefaults()
	apps := workload.ParallelSuite()
	trials := make([]trial, len(apps))
	for i, p := range apps {
		mix := make([]workload.AppParams, cores)
		for c := range mix {
			mix[c] = p // one thread per core
		}
		trials[i] = trial{mix, opt.Seed + uint64(i)*101}
	}
	results := opt.run(trials, schemes(sim.Config{}, sim.SchemePrivate, sim.SchemeShared, sim.SchemeAdaptive))
	t := stats.NewTable("Parallel workloads (§3 future work): harmonic IPC",
		"private", "shared", "adaptive", "adaptive/private")
	var aAcc, sAcc stats.Accumulator
	for i, p := range apps {
		rp, rs, ra := results[i][0], results[i][1], results[i][2]
		sp := stats.Speedup(ra.HarmonicIPC, rp.HarmonicIPC)
		t.AddRow(fmt.Sprintf("%s x%d", p.Name, cores),
			rp.HarmonicIPC, rs.HarmonicIPC, ra.HarmonicIPC, sp)
		aAcc.Add(sp)
		sAcc.Add(stats.Speedup(rs.HarmonicIPC, rp.HarmonicIPC))
	}
	return ParallelResult{
		Table:             t,
		AdaptiveVsPrivate: aAcc.Mean(),
		SharedVsPrivate:   sAcc.Mean(),
	}
}
