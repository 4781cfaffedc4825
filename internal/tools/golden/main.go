// Command golden generates the pinned-seed regression baseline under
// testdata/golden/: the adaptive scheme's epoch time-series CSV, a JSON
// summary of the run's deterministic outcomes (final partition limits,
// evaluation/transfer counts, LLC totals), under results/ the encoded
// Result (serve.EncodeResult: per-core IPC and CoreStats, LLC and DRAM
// totals) of every organization on an LLC-intensive and a
// non-intensive mix, and in figures.jsonl every simulated paper figure
// table at CI scale. The simulator is
// fully deterministic for a fixed seed and mix — TestTraceDeterministic
// pins that property — so any diff against these files is a behaviour
// change that must be either fixed or deliberately re-baselined with
// `make golden`.
//
// Only deterministic fields go into the summary: throughput and other
// wall-clock readings are excluded so the artifacts are byte-stable
// across machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nucasim/internal/atomicio"
	"nucasim/internal/experiment"
	"nucasim/internal/llc"
	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/stats"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

// The pinned scenario. Changing any of these constants invalidates the
// committed baseline — regenerate it in the same commit.
const (
	goldenSeed    = 1
	goldenApps    = "ammp,swim,lucas,gzip"
	goldenLight   = "gcc,crafty,eon,mesa" // non-intensive mix of results/
	goldenWarmup  = 400_000
	goldenCycles  = 200_000
	goldenEpochs  = 1 << 16 // far above the evaluation count: nothing may drop
	goldenVersion = 1       // bump when the summary schema changes shape
)

// summary is the deterministic slice of sim.Result that the baseline
// pins. Fields are value-stable across machines and Go versions.
type summary struct {
	Version          int             `json:"version"`
	Scheme           string          `json:"scheme"`
	Mix              []string        `json:"mix"`
	Seed             uint64          `json:"seed"`
	WarmupInstrs     uint64          `json:"warmup_instrs"`
	MeasureCycles    uint64          `json:"measure_cycles"`
	Evaluations      uint64          `json:"evaluations"`
	Transfers        uint64          `json:"transfers"`
	PartitionLimits  []int           `json:"partition_limits"`
	LLC              llc.AccessStats `json:"llc"`
	MemoryReads      uint64          `json:"memory_reads"`
	MemoryWritebacks uint64          `json:"memory_writebacks"`
	ReplayEpochs     uint64          `json:"replay_epochs_verified"`
}

func main() {
	out := flag.String("out", "testdata/golden", "directory to write epoch.csv, limits.json, results/ and figures.jsonl into")
	flag.Parse()

	mix := mixOf(goldenApps)

	r := sim.Run(sim.Config{
		Scheme: sim.SchemeAdaptive, Seed: goldenSeed,
		WarmupInstructions: goldenWarmup, MeasureCycles: goldenCycles,
		Telemetry:    &telemetry.Config{EpochCapacity: goldenEpochs},
		ReplayVerify: true,
	}, mix)
	if r.ReplayVerifyError != "" {
		fatal("baseline run failed replay self-verify: %s", r.ReplayVerifyError)
	}
	if r.EpochsDropped > 0 {
		fatal("epoch ring dropped %d samples; baseline would be truncated", r.EpochsDropped)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("%v", err)
	}
	csvPath := filepath.Join(*out, "epoch.csv")
	if err := atomicio.WriteFile(csvPath, func(w io.Writer) error {
		return telemetry.WriteEpochCSV(w, r.Epochs)
	}); err != nil {
		fatal("write %s: %v", csvPath, err)
	}

	s := summary{
		Version: goldenVersion,
		Scheme:  string(r.Scheme), Mix: r.Mix, Seed: goldenSeed,
		WarmupInstrs: goldenWarmup, MeasureCycles: goldenCycles,
		Evaluations: r.Evaluations, Transfers: r.Repartitions,
		PartitionLimits: r.PartitionLimits,
		LLC:             r.LLCTotal,
		MemoryReads:     r.Memory.Reads, MemoryWritebacks: r.Memory.Writebacks,
		ReplayEpochs: r.ReplayEpochsVerified,
	}
	jsonPath := filepath.Join(*out, "limits.json")
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := atomicio.WriteFile(jsonPath, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		fatal("%v", err)
	}

	fmt.Printf("golden: wrote %s (%d epochs) and %s (limits %v, %d/%d transfers)\n",
		csvPath, len(r.Epochs), jsonPath, s.PartitionLimits, s.Transfers, s.Evaluations)

	writeResults(filepath.Join(*out, "results"))
	writeFigures(filepath.Join(*out, "figures.jsonl"))
}

// writeResults pins the encoded Result of every organization on the
// golden mix and on a non-intensive one, as results/<scheme>-<mix>.json,
// so a change to core timing or to any baseline LLC shows as a diff.
func writeResults(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("%v", err)
	}
	for _, apps := range []string{goldenApps, goldenLight} {
		mix := mixOf(apps)
		for _, scheme := range sim.Schemes() {
			r := sim.Run(sim.Config{
				Scheme: scheme, Seed: goldenSeed,
				WarmupInstructions: goldenWarmup, MeasureCycles: goldenCycles,
			}, mix)
			data, err := serve.EncodeResult(r)
			if err != nil {
				fatal("encode %s: %v", scheme, err)
			}
			name := fmt.Sprintf("%s-%s.json", scheme, strings.ReplaceAll(apps, ",", "-"))
			path := filepath.Join(dir, name)
			if err := atomicio.WriteFile(path, func(w io.Writer) error {
				_, werr := w.Write(data)
				return werr
			}); err != nil {
				fatal("write %s: %v", path, err)
			}
			fmt.Printf("golden: wrote %s (IPC %v)\n", path, r.PerCoreIPC)
		}
	}
}

// writeFigures pins every simulated figure table (Figs. 5-12, §4.6
// sampling, the §4.3 anecdote, §6 scaling, parallel workloads) at CI
// scale, one JSON table per line exactly as `experiments -json` prints
// it, so a change to how the figures are run or reduced shows as a diff
// even when every single-run counter stays put. Figure 3 is analytic
// (no simulation) and stays out.
func writeFigures(path string) {
	opt := experiment.Options{
		Seed:               42,
		Mixes:              2,
		WarmupInstructions: 60_000,
		WarmupCycles:       10_000,
		MeasureCycles:      40_000,
	}
	tables := []*stats.Table{
		experiment.Fig5(opt),
		experiment.Fig6(opt).Table,
		experiment.Fig7(opt),
		experiment.Fig8(opt),
		experiment.Fig9(opt),
		experiment.Fig10(opt).Table,
		experiment.Fig11(opt),
		experiment.Fig12(opt),
		experiment.ShadowSampling(opt).Table,
		experiment.Anecdote(opt).Table,
		experiment.CoreScaling(opt).Table,
		experiment.ParallelWorkloads(opt).Table,
	}
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		for _, t := range tables {
			b, err := json.Marshal(t)
			if err != nil {
				return err
			}
			if _, err := w.Write(append(b, '\n')); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		fatal("write %s: %v", path, err)
	}
	fmt.Printf("golden: wrote %s (%d figure tables)\n", path, len(tables))
}

func mixOf(apps string) []workload.AppParams {
	var mix []workload.AppParams
	for _, name := range strings.Split(apps, ",") {
		p, ok := workload.ByName(name)
		if !ok {
			fatal("workload %q missing from suite", name)
		}
		mix = append(mix, p)
	}
	return mix
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "golden: "+format+"\n", args...)
	os.Exit(1)
}
