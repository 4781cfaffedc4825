package sim

import (
	"bytes"
	"fmt"
	"testing"

	"nucasim/internal/replay"
	"nucasim/internal/telemetry"
)

// TestReplaySelfVerify is the acceptance check for the replay subsystem:
// on pinned-seed mixed-app adaptive runs, reconstructing per-set LLC
// state from the full event trace must match the live cache — every
// private stack, the shared stack's tags and owners, and the limits —
// at every repartition epoch.
func TestReplaySelfVerify(t *testing.T) {
	for _, seed := range []uint64{3, 1} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkReplaySelfVerify(t, seed)
		})
	}
}

func checkReplaySelfVerify(t *testing.T, seed uint64) {
	r := Run(Config{
		Scheme: SchemeAdaptive, Seed: seed,
		WarmupInstructions: 300_000, MeasureCycles: 150_000,
		ReplayVerify: true,
	}, telemetryMix(t))
	if r.ReplayVerifyError != "" {
		t.Fatalf("replay diverged from live state: %s", r.ReplayVerifyError)
	}
	if r.ReplayEpochsVerified == 0 {
		t.Fatal("no epochs verified; window too small to repartition")
	}
	if r.ReplayEpochsVerified != r.Evaluations {
		t.Fatalf("verified %d epochs of %d evaluations", r.ReplayEpochsVerified, r.Evaluations)
	}
	// Per-set stats rode along and agree with the whole-run aggregates.
	if len(r.SetStats) == 0 {
		t.Fatal("adaptive run with telemetry reported no per-set stats")
	}
	var demotions, evictions uint64
	for _, s := range r.SetStats {
		demotions += s.Demotions
		evictions += s.Evictions
	}
	if demotions != r.LLCTotal.Demotions {
		t.Fatalf("per-set demotions sum %d, AccessStats says %d", demotions, r.LLCTotal.Demotions)
	}
	if evictions != r.LLCTotal.Evictions {
		t.Fatalf("per-set evictions sum %d, AccessStats says %d", evictions, r.LLCTotal.Evictions)
	}
}

// TestReplayVerifyTeesUserTrace: ReplayVerify must not swallow the trace
// a caller asked for — the tee still delivers a full-fidelity JSONL
// stream whose final reconstructed limits match the run.
func TestReplayVerifyTeesUserTrace(t *testing.T) {
	var trace bytes.Buffer
	r := Run(Config{
		Scheme: SchemeAdaptive, Seed: 3,
		WarmupInstructions: 300_000, MeasureCycles: 150_000,
		Telemetry:    &telemetry.Config{TraceWriter: &trace},
		ReplayVerify: true,
	}, telemetryMix(t))
	if r.ReplayVerifyError != "" {
		t.Fatalf("replay diverged: %s", r.ReplayVerifyError)
	}
	events, err := replay.ReadEvents(bytes.NewReader(trace.Bytes()), "")
	if err != nil {
		t.Fatal(err)
	}
	cores, sets := replay.InferGeometry(events)
	if cores != 4 {
		t.Fatalf("inferred %d cores, want 4", cores)
	}
	m := replay.NewMachine(cores, sets, replay.InitialLimits(cores, 4))
	if err := m.ApplyAll(events); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Limits(), r.PartitionLimits; !equalInts(got, want) {
		t.Fatalf("offline replay finished at limits %v, simulator at %v", got, want)
	}
	// The trace really was full-fidelity: fills recorded 1:1 with misses
	// is not guaranteed (warmup resets memory stats, not LLC stats), but
	// every fill must have been emitted, so fills ≥ LLC misses.
	var fills uint64
	for _, ev := range events {
		if ev.Type == "fill" {
			fills++
		}
	}
	if fills < r.LLCTotal.Misses {
		t.Fatalf("trace has %d fills for %d LLC misses — events were sampled out", fills, r.LLCTotal.Misses)
	}
}

// TestTraceDeterministic: two identical runs emit byte-identical full
// traces — the guarantee that makes traces usable as golden artifacts.
// Sampling counters are plain per-kind strides (no maps, no clock), so
// this holds for sampled traces too; full trace is the stronger check.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var trace bytes.Buffer
		Run(Config{
			Scheme: SchemeAdaptive, Seed: 7,
			WarmupInstructions: 200_000, MeasureCycles: 100_000,
			Telemetry: &telemetry.Config{Run: "det", TraceWriter: &trace, FullTrace: true},
		}, telemetryMix(t))
		return trace.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
