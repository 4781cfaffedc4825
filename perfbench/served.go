package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nucasim/internal/serve"
	"nucasim/internal/sim"
	"nucasim/internal/sweep"
	"nucasim/internal/telemetry"
)

// The served workload's job shape: a mix of LLC-intensive and light
// applications at a window small enough that a run holds many cold jobs.
var servedApps = []string{"ammp", "swim", "lucas", "gzip"}

const servedWarmInstrs, servedWarmCycles, servedMeasure uint64 = 250_000, 25_000, 250_000

const (
	// One client connection drives one worker, so one simulation or
	// request runs at a time. On a shared 2-vCPU host, two of each
	// measured how much CPU the host's other tenants left, not the
	// service.
	workers = 1
	// A round runs on a fresh nucaserve: sweepsPerRound sweeps and one
	// cold job per organization, each followed by hitsPerBatch cache hits
	// on the specs the round has completed so far, so hits sample the
	// whole period. nucaserve keeps every job's record in memory and its
	// hits slow down as records pile up, so a fresh server per round
	// keeps every round alike however many fit. At least minRounds run,
	// so p99 has ten samples beyond it.
	sweepsPerRound, hitsPerBatch, minRounds = 2, 60, 3
)

func servedJob(seed uint64, k int) serve.JobRequest {
	schemes := sim.Schemes()
	return serve.JobRequest{
		Scheme:             string(schemes[k%len(schemes)]),
		Apps:               servedApps,
		Seed:               seed*1000 + uint64(k/len(schemes)),
		WarmupInstructions: servedWarmInstrs,
		WarmupCycles:       servedWarmCycles,
		MeasureCycles:      servedMeasure,
	}
}

func servedSweep(seed uint64, n int) sweep.Spec {
	return sweep.Spec{
		Name: fmt.Sprintf("perfbench-%d", n),
		Base: sweep.Base{
			Scheme:             string(sim.SchemeAdaptive),
			Apps:               servedApps,
			Seed:               seed*1000 + 500 + uint64(n),
			WarmupInstructions: servedWarmInstrs,
			WarmupCycles:       servedWarmCycles,
		},
		Axes: sweep.Axes{MeasureCycles: []uint64{servedMeasure / 2, servedMeasure}},
	}
}

// server is one nucaserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func startServer(r *run, name string, args ...string) (*server, time.Duration, error) {
	dir := filepath.Join(r.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", filepath.Join(dir, "state"), "-workers", strconv.Itoa(workers), "-drain", "30s"}, args...)
	start := time.Now()
	cmd := exec.Command(r.nucaserve, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	for deadline := start.Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		select {
		case err := <-s.done:
			return nil, 0, fmt.Errorf("nucaserve exited before it was ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, errors.New("nucaserve not ready within 60s")
		}
		if s.base == "" {
			addr, err := os.ReadFile(addrFile)
			if err != nil {
				continue
			}
			s.base = "http://" + strings.TrimSpace(string(addr))
		}
		resp, err := http.Get(s.base + "/readyz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, time.Since(start), nil
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(90 * time.Second):
		s.kill()
		return errors.New("nucaserve did not exit within 90s of SIGTERM")
	}
}

// cpuTime is the CPU time the server's threads have used so far: the
// first field of each thread's schedstat, in nanoseconds.
func (s *server) cpuTime() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s is empty", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// servedRun is what one pass of the served sequence observed.
type servedRun struct {
	srv       *server // the current round's
	client    *http.Client
	first     map[string][]byte // job ID → first result body served
	roundCold []string          // the current round's cold job IDs
	coldCPU   []float64         // median cold-job CPU time per organization
	coldMIPS  []float64         // median cold-job throughput per organization
	sweepCPU  []float64

	// One cold adaptive job and one forked sweep point, to verify.
	coldID, forkedID   string
	coldReq, forkedReq serve.JobRequest

	hits    []float64
	submits []float64
	gets    []float64
	peakRSS []float64 // per round
}

// benchServed measures the served workload end to end.
func benchServed(r *run) error {
	s, err := runServed(r, nil, false)
	if err != nil {
		return err
	}
	if err := verifyServed(r, s); err != nil {
		return err
	}
	r.set("run_p50_s", mean(s.coldCPU))
	r.set("sim_mips", mean(s.coldMIPS))
	r.set("sweep_s", median(s.sweepCPU))
	r.set("hit_p50_ms", quantile(s.hits, 0.50))
	r.set("peak_rss_mb", median(s.peakRSS))
	return nil
}

// runServed times nucaserve's set-up, then runs rounds of the served
// sequence until the measured period is over. inspect, when set, runs
// against each round's live server before it stops; with profile set,
// each round's server writes round-<n>/cpu.pprof under the scratch
// directory.
func runServed(r *run, inspect func(*servedRun) error, profile bool) (*servedRun, error) {
	// Start-up takes milliseconds and wanders with the host; take the
	// median of many.
	const starts = 15
	var setups []float64
	for i := 0; i < starts; i++ {
		srv, ready, err := startServer(r, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
		// /readyz can answer before nucaserve installs its SIGTERM
		// handler, so a drain signal this early may kill it uncleanly.
		// These servers hold no work: kill them.
		srv.kill()
	}
	r.set("setup_s", median(setups))

	s := &servedRun{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		first:  map[string][]byte{},
	}
	schemes := len(sim.Schemes())
	cpus := make([][]float64, schemes)
	mips := make([][]float64, schemes)
	end := r.deadline()
	var lastRound time.Duration
	for round := 0; round < minRounds || time.Now().Add(lastRound).Before(end); round++ {
		roundStart := time.Now()
		name := fmt.Sprintf("round-%d", round)
		var args []string
		if profile {
			args = []string{"-cpuprofile", filepath.Join(r.work, name, "cpu.pprof")}
		}
		srv, _, err := startServer(r, name, args...)
		if err != nil {
			return s, err
		}
		s.srv = srv
		err = s.round(r, round, cpus, mips)
		if err == nil && inspect != nil {
			err = inspect(s)
		}
		if stopErr := srv.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("nucaserve exit: %w", stopErr)
		}
		if err != nil {
			return s, err
		}
		if err := os.RemoveAll(filepath.Join(r.work, name, "state")); err != nil {
			return s, err
		}
		lastRound = time.Since(roundStart)
	}

	// Cost and throughput are medians per organization, then the mean
	// over organizations: the median of five would be one organization's
	// figure and carry all of its noise.
	for j := range cpus {
		if len(cpus[j]) > 0 {
			s.coldCPU = append(s.coldCPU, median(cpus[j]))
			s.coldMIPS = append(s.coldMIPS, median(mips[j]))
		}
	}
	if len(s.coldCPU) == 0 || len(s.sweepCPU) == 0 || len(s.hits) == 0 {
		return s, errors.New("no cold job, sweep or cache hit completed")
	}
	return s, nil
}

// round runs one round of the served sequence on s.srv: sweeps whose
// points share a warmup, then one cold job per organization (cpus and
// mips collect their CPU time and throughput per organization), each
// followed by a batch of cache hits.
func (s *servedRun) round(r *run, round int, cpus, mips [][]float64) error {
	reqs := map[string][]byte{} // job ID → spec
	var specs []string          // completed this round, in order
	completed := func(id string, req serve.JobRequest) {
		reqs[id], _ = json.Marshal(req)
		specs = append(specs, id)
	}

	for n := 0; n < sweepsPerRound; n++ {
		spec := servedSweep(r.seed, round*sweepsPerRound+n)
		runtime.GC()
		c, err := s.cpuTime()
		if err != nil {
			return err
		}
		st, err := s.runSweep(spec)
		if !r.check(err == nil, "sweep %s: %v", spec.Name, err) {
			continue
		}
		used, err := s.cpuSince(c)
		if err != nil {
			return err
		}
		s.sweepCPU = append(s.sweepCPU, used.Seconds())
		for i, p := range st.PointJobs {
			r.check(p.Forked, "sweep %s point %s was not forked", spec.Name, p.Label)
			if p.Forked && s.forkedID == "" {
				s.forkedID = p.JobID
				s.forkedReq = sweepPoint(spec, i)
			}
			if _, ok := s.first[p.JobID]; !ok {
				body, err := s.get("/v1/jobs/" + p.JobID + "/result")
				if !r.check(err == nil, "sweep point result %s: %v", p.JobID, err) {
					continue
				}
				s.first[p.JobID] = body
			}
			completed(p.JobID, sweepPoint(spec, i))
		}
		s.hitBatch(r, specs, reqs)
	}

	s.roundCold = nil
	for j := range cpus {
		k := round*len(cpus) + j
		req := servedJob(r.seed, k)
		c, err := s.cpuTime()
		if err != nil {
			return err
		}
		id, body, err := s.coldJob(req)
		if !r.check(err == nil, "cold job %d (%s): %v", k, req.Scheme, err) {
			continue
		}
		used, err := s.cpuSince(c)
		if err != nil {
			return err
		}
		if req.Scheme == string(sim.SchemeAdaptive) && s.coldID == "" {
			s.coldID, s.coldReq = id, req
		}
		s.roundCold = append(s.roundCold, id)
		s.first[id] = body
		cpus[j] = append(cpus[j], used.Seconds())
		mips[j] = append(mips[j], float64(resultInstrs(body, req.WarmupInstructions))/used.Seconds()/1e6)
		completed(id, req)
		s.hitBatch(r, specs, reqs)
	}

	rss, err := peakRSSMB(strconv.Itoa(s.srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	s.peakRSS = append(s.peakRSS, rss)
	return nil
}

// cpuTime is the CPU time the server and this process have used so far.
func (s *servedRun) cpuTime() (time.Duration, error) {
	srv, err := s.srv.cpuTime()
	return srv + selfCPU(), err
}

func (s *servedRun) cpuSince(start time.Duration) (time.Duration, error) {
	now, err := s.cpuTime()
	return now - start, err
}

// hitBatch resubmits the completed specs round robin, hitsPerBatch times,
// fetching each result and timing the pair.
func (s *servedRun) hitBatch(r *run, specs []string, reqs map[string][]byte) {
	for n := 0; n < hitsPerBatch && len(specs) > 0; n++ {
		id := specs[n%len(specs)]
		t := time.Now()
		gotID, err := s.submit(reqs[id])
		submitted := time.Since(t)
		var body []byte
		if err == nil {
			body, err = s.get("/v1/jobs/" + gotID + "/result")
		}
		total := time.Since(t)
		if r.check(err == nil && gotID == id && bytes.Equal(body, s.first[id]), "cache hit on %s: err=%v", id, err) {
			s.hits = append(s.hits, millis(total))
			s.submits = append(s.submits, millis(submitted))
			s.gets = append(s.gets, millis(total-submitted))
		}
	}
}

// submit POSTs a job spec and returns the job ID.
func (s *servedRun) submit(req []byte) (string, error) {
	resp, err := s.client.Post(s.srv.base+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, st.Error)
	}
	return st.ID, nil
}

func (s *servedRun) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.srv.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// coldJob submits a new spec, follows its event stream to a terminal
// state and fetches result.json.
func (s *servedRun) coldJob(req serve.JobRequest) (string, []byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	resp, err := s.client.Post(s.srv.base+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		return "", nil, err
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", nil, fmt.Errorf("submit: HTTP %d, want 202 for a new spec: %s", resp.StatusCode, st.Error)
	}
	if err := s.follow("/v1/jobs/"+st.ID+"/events", func(line []byte) (bool, error) {
		var ev struct {
			Type   string
			Status *serve.Status
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, err
		}
		if ev.Status == nil {
			return false, nil
		}
		switch ev.Status.State {
		case serve.StateDone:
			return true, nil
		case serve.StateQueued, serve.StateRunning:
			return false, nil
		}
		return false, fmt.Errorf("job ended %s: %s", ev.Status.State, ev.Status.Error)
	}); err != nil {
		return "", nil, err
	}
	body, err := s.get("/v1/jobs/" + st.ID + "/result")
	return st.ID, body, err
}

// runSweep submits a sweep, follows its event stream until it settles
// and fetches table.json.
func (s *servedRun) runSweep(spec sweep.Spec) (serve.SweepStatus, error) {
	var st serve.SweepStatus
	data, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Post(s.srv.base+"/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		return st, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit: HTTP %d, want 202 for a new sweep: %s", resp.StatusCode, st.Error)
	}
	err = s.follow("/v1/sweeps/"+st.ID+"/events", func(line []byte) (bool, error) {
		var ev struct {
			Sweep *serve.SweepStatus
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, err
		}
		if ev.Sweep == nil || ev.Sweep.State == serve.SweepPending {
			return false, nil
		}
		st = *ev.Sweep
		if st.State != serve.SweepDone {
			return false, fmt.Errorf("sweep ended %s: %s", st.State, st.Error)
		}
		return true, nil
	})
	if err != nil {
		return st, err
	}
	_, err = s.get("/v1/sweeps/" + st.ID + "/result")
	return st, err
}

// follow reads an NDJSON stream until fn reports completion.
func (s *servedRun) follow(path string, fn func(line []byte) (bool, error)) error {
	resp, err := s.client.Get(s.srv.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		done, err := fn(sc.Bytes())
		if err != nil || done {
			// Drain the rest so the connection returns to the pool.
			io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("GET %s: stream ended before the terminal state", path)
}

// resultInstrs counts the instructions a served job simulated.
func resultInstrs(body []byte, warmupInstrs uint64) uint64 {
	var res sim.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return 0
	}
	cfg := sim.Config{WarmupInstructions: warmupInstrs}
	return simulatedInstrs(cfg, res)
}

// sweepPoint is the job spec of a sweep's i-th point (MeasureCycles is
// the only axis).
func sweepPoint(spec sweep.Spec, i int) serve.JobRequest {
	b := spec.Base
	return serve.JobRequest{Scheme: b.Scheme, Apps: b.Apps, Seed: b.Seed,
		WarmupInstructions: b.WarmupInstructions, WarmupCycles: b.WarmupCycles,
		MeasureCycles: spec.Axes.MeasureCycles[i]}
}

// verifyServed byte-compares one cold adaptive job and one forked sweep
// point against an in-process sim.RunContext of the same spec, outside
// the measured period.
func verifyServed(r *run, s *servedRun) error {
	if !r.check(s.coldID != "" && s.forkedID != "", "no completed adaptive cold job or forked sweep point to verify") {
		return nil
	}
	checks := []struct {
		id  string
		req serve.JobRequest
	}{{s.coldID, s.coldReq}, {s.forkedID, s.forkedReq}}
	for _, c := range checks {
		cfg, mix, err := c.req.Build()
		if err != nil {
			return err
		}
		cfg.Telemetry = &telemetry.Config{Run: c.id}
		res, err := sim.RunContext(context.Background(), cfg, mix)
		if !r.check(err == nil, "in-process run of %s: %v", c.id, err) {
			continue
		}
		want, err := serve.EncodeResult(res)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(s.first[c.id], want), "served result of %s differs from an in-process run (%d vs %d bytes)", c.id, len(s.first[c.id]), len(want))
	}
	return nil
}

// traceServed runs the served sequence with every round's server
// CPU-profiled, then reads the per-layer numbers from each cold job's
// span trace and the servers' counters.
func traceServed(r *run) error {
	start := time.Now()
	phases := map[string][]float64{}
	var metricsText []byte
	s, err := runServed(r, func(s *servedRun) error {
		s.spanPhases(r, phases)
		var err error
		metricsText, err = s.get("/metrics")
		return err
	}, true)
	if err != nil {
		return err
	}
	r.set("trace.wall_s", time.Since(start).Seconds())
	setSpanMetrics(r, phases)
	// The last round's server counted one round: the same whatever the
	// number of rounds.
	counters := parseExposition(metricsText)
	r.set("sweep.warmups_run", counters["serve_sweep_warmups_run"])
	r.set("sweep.forked_points", counters["serve_sweep_points_forked"])
	r.set("serve.jobs_retried", counters["serve_jobs_retried"])
	r.set("serve.cache_quarantined", counters["serve_cache_quarantined"])
	r.set("hit_p99_ms", quantile(s.hits, 0.99))
	r.set("serve.hit_submit_ms", median(s.submits))
	r.set("serve.result_get_ms", median(s.gets))

	profiles, err := filepath.Glob(filepath.Join(r.work, "round-*", "cpu.pprof"))
	if err != nil {
		return err
	}
	shares, err := fileShares(profiles...)
	if err != nil {
		return err
	}
	for pkg, share := range shares {
		r.set("pprof."+pkg+".share", share)
	}
	if err := verifyServed(r, s); err != nil {
		return err
	}
	cfg, mix, err := s.coldReq.Build()
	if err != nil {
		return err
	}
	if _, _, err := telemetryTax(r, cfg, mix); err != nil {
		return err
	}
	cfg, mix, err = sweepPoint(servedSweep(r.seed, 0), 0).Build()
	if err != nil {
		return err
	}
	return traceCheckpoint(r, cfg, mix)
}

// spanPhases reads the committed span trace of each of the round's cold
// jobs and appends the seconds per phase to phases.
func (s *servedRun) spanPhases(r *run, phases map[string][]float64) {
	for _, id := range s.roundCold {
		body, err := s.get("/v1/jobs/" + id + "/spans")
		if !r.check(err == nil, "spans of %s: %v", id, err) {
			continue
		}
		d, err := spanDurations(body)
		if !r.check(err == nil, "spans of %s: %v", id, err) {
			continue
		}
		for name, v := range d {
			phases[name] = append(phases[name], v)
		}
		phases["timed"] = append(phases["timed"], d["sim.warmup_cycles"]+d["sim.measure"])
	}
}

// setSpanMetrics reports the median time per phase of the cold jobs.
func setSpanMetrics(r *run, phases map[string][]float64) {
	ms := func(name string) float64 { return median(phases[name]) * 1e3 }
	r.set("serve.queue_wait_ms", ms("queue.wait"))
	r.set("serve.run_s", median(phases["serve.run"]))
	r.set("serve.encode_ms", ms("serve.encode"))
	r.set("serve.cache_commit_ms", ms("serve.cache_commit"))
	r.set("sim.warmup_functional_s", median(phases["sim.warmup_functional"]))
	r.set("sim.timed_s", median(phases["timed"]))
	steps := float64((servedWarmCycles + servedMeasure) * uint64(len(servedApps)))
	r.set("sim.ns_per_core_cycle", median(phases["timed"])*1e9/steps)
}

// spanDurations sums, per span name, the seconds between each B event and
// its matching E event in a Chrome trace-event document.
func spanDurations(doc []byte) (map[string]float64, error) {
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &trace); err != nil {
		return nil, err
	}
	type open struct {
		name string
		ts   float64
	}
	stacks := map[uint64][]open{}
	out := map[string]float64{}
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(stacks[ev.Tid], open{ev.Name, ev.Ts})
		case "E":
			st := stacks[ev.Tid]
			if len(st) == 0 {
				return nil, fmt.Errorf("unmatched end of %q", ev.Name)
			}
			top := st[len(st)-1]
			stacks[ev.Tid] = st[:len(st)-1]
			out[top.name] += (ev.Ts - top.ts) / 1e6
		}
	}
	return out, nil
}

// parseExposition reads the unlabelled samples of a Prometheus text
// exposition.
func parseExposition(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}
