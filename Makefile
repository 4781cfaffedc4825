# nucasim build/verify entry points. `make ci` is what the GitHub
# workflow runs: vet, build, race-enabled tests (which include the
# replay self-verify and checkpoint-resume bit-identity checks), a smoke
# run that checks the telemetry artifacts actually parse, the
# end-to-end smoke of the real nucaserve binary, and a diff against the
# pinned golden baseline.

GO ?= go

.PHONY: all build vet fmt-check test race bench bench-smoke bench-serve bench-sweep smoke e2e-smoke golden golden-check fault-coverage fuzz-smoke staticcheck govulncheck ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any Go file is not gofmt-clean (gofmt -l prints its name).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "not gofmt-clean (run gofmt -w):"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark the core engine paths (the adaptive access path with and
# without telemetry, one machine cycle on a compute-bound and on a
# memory-bound mix, the end-to-end Table 1 run, and the wall-clock span
# hot path enabled/disabled). The text output is benchstat-compatible;
# benchjson folds the same stream into the machine-readable
# BENCH_core.json benchmark record, asserting the access and span paths
# stay allocation-free and the telemetry tax stays <= 2x.
bench: build
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptiveAccess|BenchmarkSimulatorCycle|BenchmarkTable1$$|BenchmarkSpanStartEnd' \
		-benchmem -count=5 . | tee /tmp/nucasim-bench.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench.txt -out BENCH_core.json \
		-require BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry,BenchmarkSimulatorCycle,BenchmarkSimulatorCycleMemBound,BenchmarkTable1,BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled \
		-assert-zero-allocs BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry,BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled \
		-max-ratio BenchmarkAdaptiveAccessTelemetry/BenchmarkAdaptiveAccess=2.0
	@echo "bench record written to BENCH_core.json"

# One-shot benchmark smoke for CI: both adaptive access paths must stay
# allocation-free (the flat-arena engine's guarantee), the fully
# instrumented path must cost no more than 2x the bare one, and the
# wall-clock span hot path — enabled, and disabled as every untraced
# run pays it at each phase boundary — must stay allocation-free.
bench-smoke: build
	$(GO) test -run '^$$' -bench 'BenchmarkAdaptiveAccess(Telemetry)?$$|BenchmarkSpanStartEnd' -benchmem \
		-benchtime=200000x -count=3 . | tee /tmp/nucasim-bench-smoke.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-smoke.txt \
		-out /tmp/nucasim-bench-smoke.json \
		-require BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry,BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled \
		-assert-zero-allocs BenchmarkAdaptiveAccess,BenchmarkAdaptiveAccessTelemetry,BenchmarkSpanStartEnd,BenchmarkSpanStartEndDisabled \
		-max-ratio BenchmarkAdaptiveAccessTelemetry/BenchmarkAdaptiveAccess=2.0
	@echo bench-smoke ok

# Smoke-test the observability pipeline end to end: one short adaptive
# run must produce an epoch CSV and a JSONL trace that parse, with one
# CSV row per evaluation, and a schema-valid Perfetto-loadable span
# trace containing every expected phase span.
smoke: build
	$(GO) run ./cmd/nucasim -scheme adaptive -cycles 100000 \
		-metrics-out /tmp/nucasim-smoke.csv -trace-out /tmp/nucasim-smoke.jsonl \
		-span-out /tmp/nucasim-spans.json > /tmp/nucasim-smoke.txt
	$(GO) run ./internal/tools/artifactcheck \
		-metrics /tmp/nucasim-smoke.csv -trace /tmp/nucasim-smoke.jsonl -spans /tmp/nucasim-spans.json \
		-spans-require nucasim,sim.run,sim.warmup_functional,sim.warmup_segment,sim.warmup_cycles,sim.warmup_chunk,sim.measure,sim.measure_chunk,adaptive.repartition,artifact.epoch_csv,artifact.trace_commit
	@echo smoke ok

# Regenerate the pinned-seed regression baseline. Run this (and commit
# the result) only when a behaviour change is intended.
golden: build
	$(GO) run ./internal/tools/golden

# Regenerate the baseline into a scratch dir and diff against the
# committed one: any difference is an unintended behaviour change.
golden-check: build
	rm -rf /tmp/nucasim-golden
	$(GO) run ./internal/tools/golden -out /tmp/nucasim-golden
	diff -u testdata/golden/epoch.csv /tmp/nucasim-golden/epoch.csv
	diff -u testdata/golden/limits.json /tmp/nucasim-golden/limits.json
	diff -ru testdata/golden/results /tmp/nucasim-golden/results
	diff -u testdata/golden/figures.jsonl /tmp/nucasim-golden/figures.jsonl
	@echo golden ok

# Detector coverage: corrupt live cache state every way core/faults.go
# knows and require the invariant checker / replay verifier to object.
# The nucasim run then sweeps the full I1–I9 catalog (including I9's
# incremental-index-vs-recount cross-check) at every epoch of a live run,
# and the fig6 run does the same through the sweep engine's
# LocalOptions.CheckInvariants, the path every paper figure takes.
fault-coverage: build
	$(GO) test -count=1 -v ./internal/faultinject/
	$(GO) run ./cmd/nucasim -scheme adaptive -cycles 200000 -check-invariants \
		> /tmp/nucasim-invariants.txt
	$(GO) run ./cmd/experiments -check-invariants -mixes 1 \
		-warmup-instrs 60000 -warmup-cycles 10000 -cycles 40000 fig6 \
		> /tmp/nucasim-invariants-fig6.txt
	@echo "invariant sweep ok (I1-I9 under -check-invariants)"

# End-to-end smoke of the real nucaserve binary (internal/tools/e2esmoke):
# a job through its lifecycle, a restart answering it as a
# byte-identical cache hit, an 8-point shared-warmup sweep whose forked
# points match cold runs byte for byte, and a SIGKILL mid-job that a
# restart resumes from its checkpoint. Every state directory it leaves
# must then pass the store fsck.
e2e-smoke: build
	$(GO) build -o /tmp/nucaserve ./cmd/nucaserve
	$(GO) run ./internal/tools/e2esmoke -bin /tmp/nucaserve -state /tmp/nucasim-e2e
	for s in serve sweep crash; do \
		$(GO) run ./internal/tools/artifactcheck -store /tmp/nucasim-e2e/$$s || exit 1; \
	done
	@echo e2e-smoke ok

# Benchmark the service's submit path on a warmed cache (decode,
# canonicalize, hash, dedup, respond) into BENCH_serve.json.
bench-serve: build
	$(GO) test -run '^$$' -bench 'BenchmarkServeSubmit$$' -benchmem \
		-count=5 ./internal/serve/ | tee /tmp/nucasim-bench-serve.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-serve.txt \
		-out BENCH_serve.json -require BenchmarkServeSubmit
	@echo "bench record written to BENCH_serve.json"

# Benchmark warmup forking against cold per-point runs on the same
# 8-point sweep into BENCH_sweep.json: forking must keep a real
# throughput win (forked <= 0.85x cold ns/op) or the gate fails.
bench-sweep: build
	$(GO) test -run '^$$' -bench 'BenchmarkSweep(Forked|Cold)$$' -benchmem \
		-count=5 ./internal/sweep/ | tee /tmp/nucasim-bench-sweep.txt
	$(GO) run ./internal/tools/benchjson -in /tmp/nucasim-bench-sweep.txt \
		-out BENCH_sweep.json -require BenchmarkSweepForked,BenchmarkSweepCold \
		-max-ratio BenchmarkSweepForked/BenchmarkSweepCold=0.85
	@echo "bench record written to BENCH_sweep.json"

# Short fuzz pass over the external-input parsers (JSONL trace,
# canonical job spec). Seed corpora live under */testdata/fuzz/.
fuzz-smoke: build
	$(GO) test -run=^$$ -fuzz=FuzzReadEvents -fuzztime=10s ./internal/replay/
	$(GO) test -run=^$$ -fuzz=FuzzParseCanonicalSpec -fuzztime=10s ./internal/sim/

# Static analysis and vulnerability scanning. Both tools are optional at
# the Makefile level — environments without them (hermetic containers)
# skip with a notice — while the CI workflow installs them explicitly,
# so the gate is always enforced where it matters.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs it)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs it)"; \
	fi

ci: fmt-check vet staticcheck build race smoke e2e-smoke golden-check fault-coverage bench-smoke fuzz-smoke govulncheck

clean:
	rm -f /tmp/nucasim-smoke.csv /tmp/nucasim-smoke.jsonl /tmp/nucasim-smoke.txt /tmp/nucasim-spans.json
	rm -f /tmp/nucasim-bench-smoke.txt /tmp/nucasim-bench-smoke.json /tmp/nucasim-bench-sweep.txt
	rm -f /tmp/nucasim-invariants.txt /tmp/nucasim-invariants-fig6.txt
	rm -rf /tmp/nucasim-golden /tmp/nucasim-e2e /tmp/nucaserve
