// Command perfbench is nucasim's benchmark: one command that runs a
// workload for a fixed time, checks that every output is correct, and
// prints every metric by name with its unit. It measures the simulator
// and its service only from outside, by timing calls into their public
// functions and nucaserve's HTTP API.
//
//	bash perfbench/run.sh --workload membound --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md says why each exists):
//
//	membound  LLC-intensive mix under all five organizations, in process
//	compute   non-intensive mix under the adaptive organization, in process
//	served    sweeps, cold jobs and cache hits against a nucaserve process
//
// With --trace 0 the last stdout line holds the end-to-end metrics; with
// --trace 1 a separate traced pass reports the per-layer metrics. The line
// before it describes the host and the source tree.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: exactly the keys the benchmark contract
// names.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's metrics and its correctness tally.
// Every operation the workload attempts is counted; an operation fails
// when it errors, is refused, or its output differs from the reference.
type run struct {
	seed      uint64
	seconds   float64
	work      string // scratch directory, removed at exit
	nucaserve string // path of the nucaserve binary
	trace     bool

	attempted int
	failed    int
	metrics   map[string]metric
}

func (r *run) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		fatalf("metric %q has no unit", name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted operation and records whether it succeeded.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
	return ok
}

// deadline returns the end of the measured period that starts now.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

func main() {
	workload := flag.String("workload", "", "membound, compute or served")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 30, "measured period of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	nucaserve := flag.String("nucaserve", ".bench_build/perfbench/nucaserve", "nucaserve binary (served workload)")
	work := flag.String("work", ".bench_build/perfbench/tmp", "scratch directory")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	wanted, err := benchmarkMetrics(*trace == 1)
	if err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	defer os.RemoveAll(dir)
	fail := func(format string, args ...any) {
		os.RemoveAll(dir)
		fatalf(format, args...)
	}

	r := &run{
		seed:      *seed,
		seconds:   *seconds,
		work:      dir,
		nucaserve: *nucaserve,
		trace:     *trace == 1,
		metrics:   map[string]metric{},
	}
	switch w := simWorkloads[*workload]; {
	case w != nil && r.trace:
		err = traceSim(r, w)
	case w != nil:
		err = benchSim(r, w)
	case *workload == "served" && r.trace:
		err = traceServed(r)
	case *workload == "served":
		err = benchServed(r)
	default:
		err = fmt.Errorf("unknown --workload %q (want membound, compute or served)", *workload)
	}
	if err != nil {
		fail("%s: %v", *workload, err)
	}
	// Each mode reports exactly the metrics BENCHMARK.json lists for it;
	// per-layer metrics a workload's traced pass does not reach read 0.
	metrics := map[string]metric{}
	for _, name := range wanted {
		m, ok := r.metrics[name]
		if !ok && !r.trace {
			fail("end-to-end metric %s was not measured", name)
		}
		if !ok {
			m = metric{Value: 0, Unit: units[name]}
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail("metric %s is %v", name, m.Value)
		}
		metrics[name] = m
	}

	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	if rep.Attempted == 0 {
		fail("no operation was attempted")
	}
	head := map[string]any{
		"perfbench": hostInfo(),
		"workload":  *workload,
		"seed":      *seed,
		"seconds":   *seconds,
		"trace":     *trace,
	}
	headLine, _ := json.Marshal(head)
	repLine, _ := json.Marshal(rep)
	fmt.Println(string(headLine))
	fmt.Println(string(repLine))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// benchmarkMetrics reads the metric names BENCHMARK.json promises for the
// mode, sorted, so perfbench can refuse to print a result that breaks
// the promise.
func benchmarkMetrics(perLayer bool) ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		if units[m.Name] != m.Unit {
			return nil, fmt.Errorf("BENCHMARK.json gives %s unit %q, perfbench reports %q", m.Name, m.Unit, units[m.Name])
		}
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names, nil
}

// hostInfo identifies the machine and the code a record was measured on,
// so records from different CPUs or commits are never compared by
// mistake. The source digest covers every Go source and module file of
// the checkout and identifies the code even where no git metadata exists.
func hostInfo() map[string]any {
	info := map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    "unknown",
		"source_sha256": sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				rev += "-dirty"
			}
			info["git_commit"] = rev
		}
	}
	return info
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "run.sh" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM); pid
// may be "self".
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// selfCPU is the CPU time this process's threads have used so far, user
// and system. Unlike wall time it leaves out the time a virtual machine's
// host ran other tenants instead (steal).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
