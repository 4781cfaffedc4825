package experiment

import (
	"strings"
	"testing"

	"nucasim/internal/workload"
)

// tiny returns options sized for unit tests: structure and invariants are
// exercised end-to-end, shapes are validated at full scale by the bench
// harness and cmd/experiments.
func tiny() Options {
	return Options{
		Seed:               3,
		Mixes:              2,
		WarmupInstructions: 60_000,
		WarmupCycles:       10_000,
		MeasureCycles:      40_000,
	}
}

func TestFig3ShapeAndMonotonicity(t *testing.T) {
	tbl := Fig3(tiny())
	if tbl.NumRows() != 5 {
		t.Fatalf("Fig3 rows = %d, want 5 apps", tbl.NumRows())
	}
	var mcfRow, gzipRow []float64
	for i := 0; i < tbl.NumRows(); i++ {
		label, vals := tbl.Row(i)
		// Miss counts must be non-increasing in associativity (LRU is a
		// stack algorithm; small fluctuations from interference are
		// tolerated at 2 %).
		for j := 1; j < len(vals); j++ {
			if vals[j] > vals[j-1]*1.02+1 {
				t.Errorf("%s: misses increase from %d-way (%.1f) to next (%.1f)",
					label, j, vals[j-1], vals[j])
			}
		}
		switch label {
		case "mcf":
			mcfRow = vals
		case "gzip":
			gzipRow = vals
		}
	}
	// mcf is the flat curve, gzip the strongly-kneed one (Figure 3).
	mcfDrop := (mcfRow[0] - mcfRow[len(mcfRow)-1]) / mcfRow[0]
	gzipDrop := (gzipRow[0] - gzipRow[len(gzipRow)-1]) / gzipRow[0]
	if gzipDrop <= mcfDrop {
		t.Fatalf("gzip relative drop %.2f should exceed mcf %.2f", gzipDrop, mcfDrop)
	}
}

func TestFig5CoversSuiteAndThresholdSplits(t *testing.T) {
	opt := tiny()
	opt.WarmupInstructions = 300_000
	opt.MeasureCycles = 150_000
	tbl := Fig5(opt)
	if tbl.NumRows() != 24 {
		t.Fatalf("Fig5 rows = %d, want 24 apps", tbl.NumRows())
	}
	misclassified := []string{}
	for i := 0; i < tbl.NumRows(); i++ {
		label, vals := tbl.Row(i)
		p, _ := workload.ByName(label)
		measured := vals[1] == 1
		if measured != p.Intensive {
			misclassified = append(misclassified, label)
		}
	}
	// At unit-test scale a couple of borderline apps may flip; the full
	// classification is validated by BenchmarkFig5 at real window sizes.
	if len(misclassified) > 5 {
		t.Fatalf("too many misclassified apps at small scale: %v", misclassified)
	}
}

func TestFig6StructureAndSortedOutput(t *testing.T) {
	r := Fig6(tiny())
	if r.Table.NumRows() != 2 {
		t.Fatalf("Fig6 rows = %d, want 2 mixes", r.Table.NumRows())
	}
	_, first := r.Table.Row(0)
	_, second := r.Table.Row(1)
	if first[3] > second[3] {
		t.Fatal("Fig6 rows must be sorted by adaptive/private speedup")
	}
	for i := 0; i < r.Table.NumRows(); i++ {
		label, vals := r.Table.Row(i)
		if !strings.Contains(label, "+") {
			t.Fatalf("row label %q is not a mix", label)
		}
		for _, v := range vals[:3] {
			if v <= 0 {
				t.Fatalf("%s: non-positive harmonic IPC %v", label, v)
			}
		}
	}
}

func TestFig7PerAppSpeedupTable(t *testing.T) {
	tbl := Fig7(tiny())
	if tbl.NumRows() == 0 {
		t.Fatal("Fig7 empty")
	}
	for i := 0; i < tbl.NumRows(); i++ {
		label, vals := tbl.Row(i)
		if p, ok := workload.ByName(label); !ok || !p.Intensive {
			t.Fatalf("Fig7 row %q is not an intensive app", label)
		}
		// columns: shared, adaptive, private4x, samples
		if len(vals) != 4 {
			t.Fatalf("Fig7 row %q has %d columns", label, len(vals))
		}
		if vals[3] < 1 {
			t.Fatalf("Fig7 row %q has no samples", label)
		}
		for _, v := range vals[:3] {
			if v <= 0 || v > 50 {
				t.Fatalf("Fig7 %s: speedup %v implausible", label, v)
			}
		}
	}
}

func TestFig8CoversBothCategories(t *testing.T) {
	opt := tiny()
	opt.Mixes = 4
	tbl := Fig8(opt)
	sawNonIntensive := false
	for i := 0; i < tbl.NumRows(); i++ {
		label, _ := tbl.Row(i)
		if p, _ := workload.ByName(label); !p.Intensive {
			sawNonIntensive = true
		}
	}
	if !sawNonIntensive {
		t.Fatal("Fig8 should draw from the full suite")
	}
}

func TestFig9RunsWithDoubledCache(t *testing.T) {
	tbl := Fig9(tiny())
	if tbl.NumRows() == 0 {
		t.Fatal("Fig9 empty")
	}
}

func TestFig10ReportsAverages(t *testing.T) {
	r := Fig10(tiny())
	if r.AvgAdaptive <= 0 || r.AvgShared <= 0 {
		t.Fatalf("Fig10 averages missing: %+v", r)
	}
	label, _ := r.Table.Row(r.Table.NumRows() - 1)
	if label != "average" {
		t.Fatalf("Fig10 last row = %q, want average", label)
	}
}

func TestFig11And12Structure(t *testing.T) {
	for _, tbl := range []interface {
		NumRows() int
		Row(int) (string, []float64)
	}{Fig11(tiny()), Fig12(tiny())} {
		if tbl.NumRows() != 3 { // 2 mixes + average row
			t.Fatalf("rows = %d, want 3", tbl.NumRows())
		}
		label, vals := tbl.Row(tbl.NumRows() - 1)
		if label != "average" || vals[2] <= 0 {
			t.Fatalf("average row wrong: %s %v", label, vals)
		}
	}
}

func TestShadowSamplingCloseToFull(t *testing.T) {
	opt := tiny()
	opt.WarmupInstructions = 200_000
	opt.MeasureCycles = 100_000
	r := ShadowSampling(opt)
	// §4.6: sampling must be close to the full configuration. Allow a
	// loose band at unit-test scale; the bench asserts the tight one.
	if r.HarmonicIPCDeltaPct < -25 || r.HarmonicIPCDeltaPct > 25 {
		t.Fatalf("sampled shadow tags far off full config: %+.1f%%", r.HarmonicIPCDeltaPct)
	}
}

func TestAnecdoteRaisesHarmonicMean(t *testing.T) {
	opt := tiny()
	opt.WarmupInstructions = 500_000
	opt.MeasureCycles = 250_000
	r := Anecdote(opt)
	if r.AmmpSpeedup <= 1 {
		t.Fatalf("ammp should speed up under the adaptive scheme: %.3f", r.AmmpSpeedup)
	}
	if r.HarmonicAdaptive <= r.HarmonicPrivate {
		t.Fatalf("the scheme's objective (harmonic mean) must improve: %.4f vs %.4f",
			r.HarmonicAdaptive, r.HarmonicPrivate)
	}
}

func TestCoreScalingStructure(t *testing.T) {
	opt := tiny()
	opt.Mixes = 1
	r := CoreScaling(opt)
	if r.Table.NumRows() != 2 {
		t.Fatalf("scaling rows = %d, want 2", r.Table.NumRows())
	}
	if _, ok := r.GainAtCores[8]; !ok {
		t.Fatal("8-core gain missing")
	}
}

func TestParallelWorkloadsSingleCopyWins(t *testing.T) {
	opt := tiny()
	opt.WarmupInstructions = 400_000
	opt.MeasureCycles = 200_000
	r := ParallelWorkloads(opt)
	if r.Table.NumRows() != 3 {
		t.Fatalf("parallel rows = %d, want 3 apps", r.Table.NumRows())
	}
	// The §3 hypothesis: keeping one copy of the shared data should beat
	// replicating it into private caches on average.
	if r.AdaptiveVsPrivate <= 1 {
		t.Fatalf("adaptive should beat private on parallel apps: %.3f", r.AdaptiveVsPrivate)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Mixes == 0 || o.WarmupInstructions == 0 || o.WarmupCycles == 0 || o.MeasureCycles == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
}

func TestDeterministicFigures(t *testing.T) {
	a := Fig6(tiny())
	b := Fig6(tiny())
	_, ra := a.Table.Row(0)
	_, rb := b.Table.Row(0)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("Fig6 not deterministic in its seed")
		}
	}
}
