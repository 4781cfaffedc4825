// Command sweepsmoke is the CI smoke test for the sweep orchestration
// service: it drives a real nucaserve binary through an 8-point sweep
// whose points share one warmup group and proves the two properties
// warmup forking exists for —
//
//  1. the shared warmup runs exactly once (asserted from the /metrics
//     telemetry counters: serve_sweep_warmups_run and
//     serve_sweep_points_forked);
//  2. forking is invisible in the results: every forked point's
//     committed result.json is byte-identical to a cold in-process
//     sim.Run of the same canonical spec.
//
// It also checks the aggregated table artifacts (one row per point, in
// both JSON and CSV forms) and leaves the state directory behind when
// -state is given, so `make sweep-smoke` can fsck it with
// artifactcheck -store.
//
//	sweepsmoke -bin /tmp/nucaserve -state /tmp/sweepsmoke-state
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
)

// smokeSpec expands to 8 points differing only in MeasureCycles — one
// warmup group, every point forked.
var smokeSpec = sweep.Spec{
	Name: "sweepsmoke",
	Base: sweep.Base{
		Scheme:             "adaptive",
		Apps:               []string{"ammp", "swim"},
		Seed:               7,
		WarmupInstructions: 200_000,
		WarmupCycles:       20_000,
	},
	Axes: sweep.Axes{
		MeasureCycles: []uint64{10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000},
	},
}

func main() {
	bin := flag.String("bin", "/tmp/nucaserve", "path to the nucaserve binary under test")
	state := flag.String("state", "", "state directory (kept for post-hoc fsck; a discarded temp dir when empty)")
	flag.Parse()

	if *state == "" {
		work, err := os.MkdirTemp("", "sweepsmoke-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(work)
		*state = work
	}
	addrFile := *state + "/addr"

	base := startServer(*bin, *state, addrFile)

	body, err := json.Marshal(smokeSpec)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	var st serve.SweepStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		fatal(fmt.Errorf("submit: HTTP %d, want 202", resp.StatusCode))
	}
	if st.Points != 8 || st.WarmupGroups != 1 || st.ForkedPoints != 8 {
		fatal(fmt.Errorf("schedule = %d points, %d warmup groups, %d forked — want 8/1/8", st.Points, st.WarmupGroups, st.ForkedPoints))
	}

	deadline := time.Now().Add(120 * time.Second)
	for st.State == serve.SweepPending {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("sweep never settled (resolved %d/%d)", st.Resolved, st.Points))
		}
		time.Sleep(50 * time.Millisecond)
		if err := json.Unmarshal(get(base+"/v1/sweeps/"+st.ID, http.StatusOK), &st); err != nil {
			fatal(err)
		}
	}
	if st.State != serve.SweepDone {
		fatal(fmt.Errorf("sweep ended %s: %s", st.State, st.Error))
	}

	// Guarantee 1: the group's warmup ran exactly once, and all 8 points
	// resumed from its checkpoint.
	metrics := string(get(base+"/metrics", http.StatusOK))
	requireCounter(metrics, "serve_sweep_warmups_run", 1)
	requireCounter(metrics, "serve_sweep_points_forked", 8)
	requireCounter(metrics, "serve_sweep_fork_fallbacks", 0)
	requireCounter(metrics, "serve_sweep_warmup_failures", 0)

	// Guarantee 2: forking is invisible — every point's served artifact
	// is byte-identical to a cold end-to-end run of the same spec.
	points, err := sweep.Expand(smokeSpec, 0)
	if err != nil {
		fatal(err)
	}
	if len(points) != len(st.PointJobs) {
		fatal(fmt.Errorf("local expansion disagrees with the server: %d vs %d points", len(points), len(st.PointJobs)))
	}
	for i, ps := range st.PointJobs {
		if !ps.Forked {
			fatal(fmt.Errorf("point %q did not fork", ps.Label))
		}
		got := get(base+"/v1/jobs/"+ps.JobID+"/result", http.StatusOK)
		cfg := points[i].Cfg
		cfg.Telemetry = &telemetry.Config{Run: ps.JobID}
		want, err := serve.EncodeResult(sim.Run(cfg, points[i].Mix))
		if err != nil {
			fatal(err)
		}
		if !bytes.Equal(got, want) {
			fatal(fmt.Errorf("point %q: forked result.json differs from a cold run (%d vs %d bytes)", ps.Label, len(got), len(want)))
		}
	}

	// The aggregate artifacts: one row per point, JSON and CSV agreeing
	// on shape.
	var table struct {
		Title string `json:"title"`
		Rows  []struct {
			Label string `json:"label"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(get(base+"/v1/sweeps/"+st.ID+"/result", http.StatusOK), &table); err != nil {
		fatal(fmt.Errorf("table.json does not parse: %w", err))
	}
	if table.Title != "sweepsmoke" || len(table.Rows) != 8 {
		fatal(fmt.Errorf("table = %q with %d rows, want sweepsmoke with 8", table.Title, len(table.Rows)))
	}
	csv := get(base+"/v1/sweeps/"+st.ID+"/result?artifact=csv", http.StatusOK)
	if lines := bytes.Count(csv, []byte("\n")); lines != 10 { // title comment + header + 8 rows
		fatal(fmt.Errorf("table.csv has %d lines, want 10", lines))
	}

	stopServer()
	fmt.Println("sweepsmoke ok: 8-point sweep, warmup ran once, 8 forks byte-identical to cold runs, table committed")
}

var server *exec.Cmd

func startServer(bin, state, addrFile string) string {
	server = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state", state, "-drain", "30s")
	server.Stdout = os.Stderr
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil {
			return "http://" + strings.TrimSpace(string(addr))
		}
		time.Sleep(20 * time.Millisecond)
	}
	fatal(fmt.Errorf("server never wrote %s", addrFile))
	return ""
}

func stopServer() {
	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- server.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatal(fmt.Errorf("server exited uncleanly after SIGTERM: %w", err))
		}
	case <-time.After(60 * time.Second):
		server.Process.Kill()
		fatal(fmt.Errorf("server did not exit within 60s of SIGTERM"))
	}
}

// requireCounter asserts one exact "name value" sample in the /metrics
// exposition — exact, because "warmup ran approximately once" would
// defeat the point of the smoke.
func requireCounter(metrics, name string, want int) {
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			if fields[1] != fmt.Sprint(want) {
				fatal(fmt.Errorf("%s = %s, want %d", name, fields[1], want))
			}
			return
		}
	}
	fatal(fmt.Errorf("/metrics does not expose %s", name))
}

func get(url string, wantCode int) []byte {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != wantCode {
		fatal(fmt.Errorf("GET %s: HTTP %d, want %d\n%s", url, resp.StatusCode, wantCode, body))
	}
	return body
}

func fatal(err error) {
	if server != nil && server.Process != nil {
		server.Process.Kill()
	}
	fmt.Fprintln(os.Stderr, "sweepsmoke:", err)
	os.Exit(1)
}
