// Command e2esmoke is the end-to-end smoke test for nucaserve: it drives
// the real server binary over HTTP through three scenarios, in order,
// and proves that every result the service hands out — computed, read
// back from the cache, forked from a shared warmup, or recovered after
// a crash — is byte-identical to a cold run.
//
//   - serve: submit → run → result; SIGTERM drains cleanly (exit 0); the
//     /metrics scrape carries the Prometheus text Content-Type, passes
//     the exposition linter and exposes ≥3 histogram families; a
//     restarted server answers the same submission from the
//     content-addressed cache, byte for byte, without simulating.
//   - sweep: an 8-point sweep sharing one warmup group runs that warmup
//     exactly once (asserted from the /metrics counters), every point
//     forks it, every forked result equals a cold in-process run, and
//     the aggregated table is committed in JSON and CSV.
//   - crash: SIGKILL mid-job — no drain, no signal handler, what the OOM
//     killer does — then a restart over the same state resumes the job
//     from its periodic checkpoint, serves a byte-identical result, and
//     leaves a store that verifies with nothing quarantined.
//
// Each scenario runs in its own fresh directory <state>/<scenario>,
// which it leaves behind so `make e2e-smoke` can fsck all three with
// artifactcheck -store.
//
//	e2esmoke -bin /tmp/nucaserve -state /tmp/nucasim-e2e
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
	"nucasim/internal/workload"
)

func main() {
	bin := flag.String("bin", "/tmp/nucaserve", "path to the nucaserve binary under test")
	state := flag.String("state", "", "root state directory, one <state>/<scenario> per scenario (a discarded temp dir when empty)")
	flag.Parse()

	root := *state
	if root == "" {
		work, err := os.MkdirTemp("", "e2esmoke-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(work)
		root = work
	}
	for _, sc := range []struct {
		name string
		run  func(*server)
	}{{"serve", serveScenario}, {"sweep", sweepScenario}, {"crash", crashScenario}} {
		dir := filepath.Join(root, sc.name)
		if err := os.RemoveAll(dir); err != nil {
			fatal(err)
		}
		sc.run(&server{bin: *bin, state: dir})
		fmt.Printf("e2esmoke: %s ok\n", sc.name)
	}
}

// serveScenario: lifecycle, /metrics, clean drain, and a restart that
// answers from the cache byte-identically.
func serveScenario(srv *server) {
	req := serve.JobRequest{
		Scheme:             "adaptive",
		Apps:               []string{"ammp", "swim"},
		Seed:               1,
		WarmupInstructions: 200_000,
		WarmupCycles:       20_000,
		MeasureCycles:      150_000,
	}

	// Round 1: cold cache. The job must actually run.
	srv.start()
	var st serve.Status
	srv.postJSON("/v1/jobs", req, &st, http.StatusAccepted)
	id := st.ID
	waitUntil("job done", 60*time.Second, func() bool { return srv.job(id).State == serve.StateDone })
	first := srv.get("/v1/jobs/"+id+"/result", http.StatusOK)
	if !json.Valid(first) {
		fatal(fmt.Errorf("result is not valid JSON"))
	}
	if csv := srv.get("/v1/jobs/"+id+"/result?artifact=epochs", http.StatusOK); !bytes.HasPrefix(csv, []byte("eval,")) {
		fatal(fmt.Errorf("epoch artifact does not look like the epoch CSV"))
	}
	// Round 1 is the only valid scrape point for the histogram checks:
	// the round-2 process answers from the cache and never merges
	// simulation histograms into its registry.
	header, metrics := srv.do("GET", "/metrics", nil, http.StatusOK)
	if ct := header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		fatal(fmt.Errorf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct))
	}
	if errs := telemetry.LintExposition(bytes.NewReader(metrics)); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "e2esmoke: lint:", e)
		}
		fatal(fmt.Errorf("/metrics fails exposition lint (%d problems)", len(errs)))
	}
	if n := bytes.Count(metrics, []byte(" histogram\n")); n < 3 {
		fatal(fmt.Errorf("/metrics exposes %d histogram families, want >= 3:\n%s", n, metrics))
	}
	srv.stop()

	// Round 2: warm cache, fresh process. The same submission must be
	// answered from disk, byte-identical, and marked cached.
	srv.start()
	srv.postJSON("/v1/jobs", req, &st, http.StatusOK)
	if st.ID != id {
		fatal(fmt.Errorf("content address changed across restarts: %s vs %s", id, st.ID))
	}
	if st = srv.job(id); st.State != serve.StateDone || !st.Cached {
		fatal(fmt.Errorf("warm status = %s cached=%v, want done+cached", st.State, st.Cached))
	}
	if second := srv.get("/v1/jobs/"+id+"/result", http.StatusOK); !bytes.Equal(first, second) {
		fatal(fmt.Errorf("cached result differs from the originally computed one (%d vs %d bytes)", len(second), len(first)))
	}
	requireCounter(srv.get("/metrics", http.StatusOK), "serve_cache_hits", 1)
	srv.stop()
}

// sweepScenario: 8 points differing only in MeasureCycles — one warmup
// group, every point forked.
func sweepScenario(srv *server) {
	spec := sweep.Spec{
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

	srv.start()
	var st serve.SweepStatus
	srv.postJSON("/v1/sweeps", spec, &st, http.StatusAccepted)
	if st.Points != 8 || st.WarmupGroups != 1 || st.ForkedPoints != 8 {
		fatal(fmt.Errorf("schedule = %d points, %d warmup groups, %d forked — want 8/1/8", st.Points, st.WarmupGroups, st.ForkedPoints))
	}
	waitUntil("sweep settled", 120*time.Second, func() bool {
		srv.getJSON("/v1/sweeps/"+st.ID, &st)
		return st.State != serve.SweepPending
	})
	if st.State != serve.SweepDone {
		fatal(fmt.Errorf("sweep ended %s: %s", st.State, st.Error))
	}

	// The group's warmup ran exactly once, and all 8 points resumed from
	// its checkpoint.
	metrics := srv.get("/metrics", http.StatusOK)
	requireCounter(metrics, "serve_sweep_warmups_run", 1)
	requireCounter(metrics, "serve_sweep_points_forked", 8)
	requireCounter(metrics, "serve_sweep_fork_fallbacks", 0)
	requireCounter(metrics, "serve_sweep_warmup_failures", 0)

	// Forking is invisible: every point's served artifact is
	// byte-identical to a cold end-to-end run of the same spec.
	points, err := sweep.Expand(spec, 0)
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
		id, want := reference(points[i].Cfg, points[i].Mix)
		if ps.JobID != id {
			fatal(fmt.Errorf("point %q: server job %s, locally computed %s", ps.Label, ps.JobID, id))
		}
		if got := srv.get("/v1/jobs/"+id+"/result", http.StatusOK); !bytes.Equal(got, want) {
			fatal(fmt.Errorf("point %q: forked result.json differs from a cold run (%d vs %d bytes)", ps.Label, len(got), len(want)))
		}
	}

	// The aggregate artifacts: one row per point, JSON and CSV agreeing
	// on shape.
	var table struct {
		Title string            `json:"title"`
		Rows  []json.RawMessage `json:"rows"`
	}
	srv.getJSON("/v1/sweeps/"+st.ID+"/result", &table)
	if table.Title != "sweepsmoke" || len(table.Rows) != 8 {
		fatal(fmt.Errorf("table = %q with %d rows, want sweepsmoke with 8", table.Title, len(table.Rows)))
	}
	csv := srv.get("/v1/sweeps/"+st.ID+"/result?artifact=csv", http.StatusOK)
	if lines := bytes.Count(csv, []byte("\n")); lines != 10 { // title comment + header + 8 rows
		fatal(fmt.Errorf("table.csv has %d lines, want 10", lines))
	}
	srv.stop()
}

// crashScenario: SIGKILL mid-job, restart, resume from the checkpoint.
// The job must outlive the kill by a wide margin yet finish quickly on
// resume: ~20M measured cycles runs a few seconds, and
// -checkpoint-every 20000 cycles lands a checkpoint almost as soon as
// the measure phase starts.
func crashScenario(srv *server) {
	req := serve.JobRequest{
		Scheme:             "adaptive",
		Apps:               []string{"ammp", "swim"},
		Seed:               7,
		WarmupInstructions: 200_000,
		WarmupCycles:       20_000,
		MeasureCycles:      20_000_000,
	}
	cfg, mix, err := req.Build()
	if err != nil {
		fatal(err)
	}
	hash, want := reference(cfg, mix)

	// Round 1: submit, wait for a checkpoint to land, then SIGKILL.
	srv.start("-checkpoint-every", "20000")
	var st serve.Status
	srv.postJSON("/v1/jobs", req, &st, http.StatusAccepted)
	if st.ID != hash {
		fatal(fmt.Errorf("server content address %s != locally computed %s", st.ID, hash))
	}
	ckpt := filepath.Join(srv.state, "jobs", hash, "checkpoint.bin")
	waitUntil("a checkpoint exists", 60*time.Second, func() bool {
		_, err := os.Stat(ckpt)
		return err == nil
	})
	if st = srv.job(hash); st.State != serve.StateRunning {
		fatal(fmt.Errorf("job is %q at kill time, want running (job too short to crash mid-run?)", st.State))
	}
	srv.kill()

	// Round 2: recovery must re-queue the job from its on-disk spec and
	// resume from the checkpoint.
	srv.start("-checkpoint-every", "20000")
	waitUntil("job done after restart", 120*time.Second, func() bool { return srv.job(hash).State == serve.StateDone })
	if !srv.job(hash).Resumed {
		fatal(fmt.Errorf("job finished without resuming from its checkpoint (progress was thrown away)"))
	}
	if got := srv.get("/v1/jobs/"+hash+"/result", http.StatusOK); !bytes.Equal(got, want) {
		fatal(fmt.Errorf("post-crash result differs from uninterrupted reference (%d vs %d bytes)", len(got), len(want)))
	}
	srv.get("/v1/jobs/"+hash+"/result?artifact=epochs", http.StatusOK)
	srv.stop()

	// The entry passes its manifest check, the obsolete checkpoint is
	// gone, and nothing was quarantined along the way.
	store, err := serve.NewStore(srv.state)
	if err != nil {
		fatal(err)
	}
	if !store.Has(serve.JobKind, hash) {
		fatal(fmt.Errorf("committed entry fails integrity verification after crash recovery"))
	}
	if store.HasCheckpoint(hash) {
		fatal(fmt.Errorf("stale checkpoint survived the commit"))
	}
	if entries, err := os.ReadDir(store.QuarantineDir()); err == nil && len(entries) > 0 {
		fatal(fmt.Errorf("%d entries were quarantined during a clean crash-recovery cycle", len(entries)))
	}
}

// reference runs the spec cold and in process, returning its content
// address and the result.json bytes a server must serve for it.
func reference(cfg sim.Config, mix []workload.AppParams) (id string, result []byte) {
	id, err := sim.SpecHash(cfg, mix)
	if err != nil {
		fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: id}
	result, err = serve.EncodeResult(sim.Run(cfg, mix))
	if err != nil {
		fatal(err)
	}
	return id, result
}

// server is one nucaserve process at a time over a fixed state
// directory; restarts reuse the directory.
type server struct {
	bin, state string
	cmd        *exec.Cmd
	base       string
}

// running is the live server process, killed by fatal.
var running *exec.Cmd

// start launches the binary on an ephemeral port and waits for it to
// publish its address.
func (s *server) start(extraArgs ...string) {
	addrFile := filepath.Join(s.state, "addr")
	if err := os.MkdirAll(s.state, 0o755); err != nil {
		fatal(err)
	}
	os.Remove(addrFile) // a previous process's address is stale
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state", s.state, "-drain", "30s"}, extraArgs...)
	s.cmd = exec.Command(s.bin, args...)
	s.cmd.Stdout = os.Stderr
	s.cmd.Stderr = os.Stderr
	if err := s.cmd.Start(); err != nil {
		fatal(err)
	}
	running = s.cmd
	waitUntil("the server address in "+addrFile, 30*time.Second, func() bool {
		addr, err := os.ReadFile(addrFile)
		s.base = "http://" + strings.TrimSpace(string(addr))
		return err == nil
	})
}

// stop SIGTERMs the server and requires a clean (exit 0) drain.
func (s *server) stop() {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatal(fmt.Errorf("server exited uncleanly after SIGTERM: %w", err))
		}
	case <-time.After(60 * time.Second):
		fatal(fmt.Errorf("server did not exit within 60s of SIGTERM"))
	}
	running = nil
}

// kill SIGKILLs the server: no drain, no checkpoint-on-exit.
func (s *server) kill() {
	if err := s.cmd.Process.Kill(); err != nil {
		fatal(err)
	}
	s.cmd.Wait() // its error only reports the kill
	running = nil
}

// job fetches a job's status, failing the smoke if the job has failed
// or been canceled.
func (s *server) job(id string) serve.Status {
	var st serve.Status
	s.getJSON("/v1/jobs/"+id, &st)
	if st.State == serve.StateFailed || st.State == serve.StateCanceled {
		fatal(fmt.Errorf("job %s ended %q (%s)", id, st.State, st.Error))
	}
	return st
}

// do sends one request and returns the response header and body,
// failing unless the status code is want.
func (s *server) do(method, path string, body io.Reader, want int) (http.Header, []byte) {
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != want {
		fatal(fmt.Errorf("%s %s: HTTP %d, want %d\n%s", method, path, resp.StatusCode, want, data))
	}
	return resp.Header, data
}

func (s *server) get(path string, want int) []byte {
	_, data := s.do("GET", path, nil, want)
	return data
}

func (s *server) getJSON(path string, out any) {
	if err := json.Unmarshal(s.get(path, http.StatusOK), out); err != nil {
		fatal(fmt.Errorf("GET %s: %w", path, err))
	}
}

func (s *server) postJSON(path string, in, out any, want int) {
	body, err := json.Marshal(in)
	if err != nil {
		fatal(err)
	}
	_, data := s.do("POST", path, bytes.NewReader(body), want)
	if err := json.Unmarshal(data, out); err != nil {
		fatal(fmt.Errorf("POST %s: %w", path, err))
	}
}

// waitUntil polls cond until it holds, failing after limit.
func waitUntil(what string, limit time.Duration, cond func() bool) {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("timed out waiting for %s", what))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// requireCounter asserts one exact "name value" sample in a /metrics
// exposition — exact, because "warmup ran approximately once" would
// defeat the point of the smoke.
func requireCounter(metrics []byte, name string, want int) {
	for _, line := range strings.Split(string(metrics), "\n") {
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

func fatal(err error) {
	if running != nil {
		running.Process.Kill()
	}
	fmt.Fprintln(os.Stderr, "e2esmoke:", err)
	os.Exit(1)
}
