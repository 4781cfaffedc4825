package serve

import (
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"nucasim/internal/sim"
	"nucasim/internal/telemetry"
)

// serverMetrics wraps a telemetry.Registry with a mutex: the registry
// itself is single-writer by design (it serves the lock-free simulator
// core), but here HTTP scrapes and several workers touch it at once.
type serverMetrics struct {
	mu  chan struct{} // 1-slot semaphore; avoids a second sync import here
	reg telemetry.Registry
}

func (m *serverMetrics) init() {
	m.mu = make(chan struct{}, 1)
	// Register the job-latency histograms eagerly so the first scrape
	// already exposes the full family set (with zero counts), not only
	// after the first job completes.
	m.reg.Histogram("serve.job_queue_wait_us")
	m.reg.Histogram("serve.job_run_us")
	// The fault-observability counter trio is registered eagerly too:
	// dashboards alert on these, so they must read 0 from the first
	// scrape rather than appearing only once something already failed.
	m.reg.Counter("serve.jobs_failed")
	m.reg.Counter("serve.panics_recovered")
	m.reg.Counter("serve.cache_quarantined")
	// The sweep family e2e-smoke scrapes: asserting "warmup ran exactly
	// once" needs the zero to exist before the first sweep does.
	m.reg.Counter("serve.sweeps_submitted")
	m.reg.Counter("serve.sweeps_completed")
	m.reg.Counter("serve.sweeps_failed")
	m.reg.Counter("serve.sweep_warmups_run")
	m.reg.Counter("serve.sweep_warmup_failures")
	m.reg.Counter("serve.sweep_points_forked")
	m.reg.Counter("serve.sweep_fork_fallbacks")
}

func (m *serverMetrics) inc(name string) {
	m.mu <- struct{}{}
	m.reg.Counter(name).Inc()
	<-m.mu
}

func (m *serverMetrics) add(name string, n uint64) {
	m.mu <- struct{}{}
	m.reg.Counter(name).Add(n)
	<-m.mu
}

func (m *serverMetrics) observe(name string, v uint64) {
	m.mu <- struct{}{}
	m.reg.Histogram(name).Observe(v)
	<-m.mu
}

// merge folds a finished job's simulation histograms (per-core LLC
// latency, DRAM queue delay, end-to-end load latency) into the server's
// registry, so /metrics aggregates distributions across jobs.
func (m *serverMetrics) merge(hists map[string]telemetry.HistogramSnapshot) {
	m.mu <- struct{}{}
	for name, s := range hists {
		m.reg.Histogram(name).AddSnapshot(s)
	}
	<-m.mu
}

func (m *serverMetrics) snapshot() telemetry.MetricsSnapshot {
	m.mu <- struct{}{}
	out := m.reg.Metrics()
	<-m.mu
	return out
}

// writeMetrics renders the /metrics exposition: every registry
// instrument — lifecycle counters, job-latency and merged simulation
// histograms — plus gauges computed at scrape time (per-state job
// counts, queue and pool occupancy including the FIFO's all-time
// high-water mark, uptime, the process-wide simulated-cycle throughput
// shared with the CLI tools, Go runtime health sampled via
// runtime/metrics, and a build_info info metric identifying the
// binary). Everything renders through the one telemetry.WriteMetrics
// path, so registry gauges and scrape-time gauges can no longer
// diverge.
func (s *Server) writeMetrics(w io.Writer) error {
	m := s.metrics.snapshot()
	if m.Gauges == nil {
		m.Gauges = make(map[string]float64)
	}

	s.mu.Lock()
	m.Gauges["serve.queue_depth"] = float64(len(s.queue))
	m.Gauges["serve.queue_depth_high_water"] = float64(s.queueHigh)
	m.Gauges["serve.queue_capacity"] = float64(s.opts.QueueDepth)
	m.Gauges["serve.workers"] = float64(s.opts.Workers)
	m.Gauges["serve.workers_busy"] = float64(s.running)
	m.Gauges["serve.draining"] = b2f(s.draining)
	perState := make(map[JobState]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		perState[j.state]++
		j.mu.Unlock()
	}
	perSweepState := make(map[SweepState]int)
	for _, sw := range s.sweeps {
		sw.mu.Lock()
		perSweepState[sw.state]++
		sw.mu.Unlock()
	}
	s.mu.Unlock()

	// serve.jobs_state_<state>, not serve.jobs_<state>: the lifecycle
	// counters (serve.jobs_failed, serve.jobs_canceled, ...) own that
	// namespace, and a gauge and counter sharing one family name is an
	// exposition-format violation the e2e-smoke lint rejects.
	for _, st := range []JobState{StateQueued, StateRunning, StateDone,
		StateFailed, StateCanceled, StateCheckpointed, StateInterrupted} {
		m.Gauges["serve.jobs_state_"+string(st)] = float64(perState[st])
	}
	for _, st := range []SweepState{SweepPending, SweepDone, SweepFailed, SweepCanceled} {
		m.Gauges["serve.sweeps_state_"+string(st)] = float64(perSweepState[st])
	}
	up := time.Since(s.started).Seconds()
	m.Gauges["serve.uptime_seconds"] = up
	cycles := sim.CyclesSimulated()
	m.Gauges["sim.cycles_simulated"] = float64(cycles)
	if up > 0 {
		m.Gauges["sim.cycles_per_second"] = float64(cycles) / up
	}
	m.Gauges["telemetry.profiles_written"] = float64(telemetry.ProfilesWritten())

	// Go runtime health, sampled at scrape time via runtime/metrics.
	rs := telemetry.ReadRuntime()
	m.Gauges["go.goroutines"] = float64(rs.Goroutines)
	m.Gauges["go.heap_bytes"] = float64(rs.HeapBytes)
	m.Gauges["go.gc_cycles"] = float64(rs.GCCycles)
	m.Gauges["go.gc_pause_p99_seconds"] = rs.GCPauseP99
	m.Gauges["go.sched_latency_p99_seconds"] = rs.SchedLatP99

	if m.Infos == nil {
		m.Infos = make(map[string]map[string]string)
	}
	info := map[string]string{"go_version": runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info["path"] = bi.Main.Path
		if bi.Main.Version != "" {
			info["version"] = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				info["revision"] = kv.Value
			}
		}
	}
	m.Infos["nucaserve.build_info"] = info
	return telemetry.WriteMetrics(w, m)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
