// Command crashsmoke is the CI crash-consistency test for nucaserve: it
// kills a real server binary with SIGKILL mid-job — no drain, no signal
// handler, exactly what the OOM killer or a power cut does — restarts
// it over the same state directory, and proves the crash cost progress
// but never correctness:
//
//  1. the restarted server resumes the job from its periodic
//     crash-safety checkpoint (the status reports resumed=true) and
//     finishes it;
//
//  2. the served result is byte-identical to an uninterrupted in-process
//     run of the same spec (the determinism contract survives a kill);
//
//  3. the state directory passes the store's own integrity verification
//     afterwards — every committed artifact matches its manifest and
//     nothing was quarantined.
//
//     crashsmoke -bin /tmp/nucaserve
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
	"nucasim/internal/telemetry"
)

// The job must outlive the kill by a wide margin yet finish quickly on
// resume: ~20M measured cycles runs a few seconds, and -checkpoint-every
// 20000 cycles means a checkpoint lands almost immediately after the
// measure phase starts.
var jobReq = serve.JobRequest{
	Scheme:             "adaptive",
	Apps:               []string{"ammp", "swim"},
	Seed:               7,
	WarmupInstructions: 200_000,
	WarmupCycles:       20_000,
	MeasureCycles:      20_000_000,
}

func main() {
	bin := flag.String("bin", "/tmp/nucaserve", "path to the nucaserve binary under test")
	flag.Parse()

	work, err := os.MkdirTemp("", "crashsmoke-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)
	state := filepath.Join(work, "state")

	// Reference: an uninterrupted in-process run of the same spec.
	cfg, mix, err := jobReq.Build()
	if err != nil {
		fatal(err)
	}
	hash, err := sim.SpecHash(cfg, mix)
	if err != nil {
		fatal(err)
	}
	cfg.Telemetry = &telemetry.Config{Run: hash}
	want, err := serve.EncodeResult(sim.Run(cfg, mix))
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "crashsmoke: reference run done (job %s, %d bytes)\n", hash[:12], len(want))

	// Round 1: start the victim, submit, wait for a checkpoint to land,
	// then SIGKILL it mid-run.
	base := startServer(*bin, state, filepath.Join(work, "addr1"))
	id := submitJob(base)
	if id != hash {
		fatal(fmt.Errorf("server content address %s != locally computed %s", id, hash))
	}
	ckpt := filepath.Join(state, "jobs", hash, "checkpoint.bin")
	waitUntil("a checkpoint exists", 60*time.Second, func() bool {
		_, err := os.Stat(ckpt)
		return err == nil
	})
	if st := getStatus(base, id); st.State != "running" {
		fatal(fmt.Errorf("job is %q at kill time, want running (job too short to crash mid-run?)", st.State))
	}
	if err := server.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint-on-exit
		fatal(err)
	}
	server.Wait()
	fmt.Fprintln(os.Stderr, "crashsmoke: server killed with SIGKILL mid-job")

	// Round 2: restart over the same state. Recovery must re-queue the
	// job from its on-disk spec and resume from the checkpoint.
	base = startServer(*bin, state, filepath.Join(work, "addr2"))
	waitUntil("job done after restart", 120*time.Second, func() bool {
		st := getStatus(base, id)
		switch st.State {
		case "failed", "canceled":
			fatal(fmt.Errorf("job ended %q (%s) after restart, want done", st.State, st.Error))
		}
		return st.State == "done"
	})
	if st := getStatus(base, id); !st.Resumed {
		fatal(fmt.Errorf("job finished without resuming from its checkpoint (progress was thrown away)"))
	}
	got := get(base+"/v1/jobs/"+id+"/result", http.StatusOK)
	if !bytes.Equal(got, want) {
		fatal(fmt.Errorf("post-crash result differs from uninterrupted reference (%d vs %d bytes)", len(got), len(want)))
	}
	get(base+"/v1/jobs/"+id+"/result?artifact=epochs", http.StatusOK)
	stopServer()

	// The state directory itself must verify: the entry passes its
	// manifest check, the obsolete checkpoint is gone, and nothing was
	// quarantined along the way.
	store, err := serve.NewStore(state)
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

	fmt.Println("crashsmoke ok: SIGKILL mid-job, restart resumed from checkpoint, result byte-identical, store verifies")
}

var server *exec.Cmd

// startServer launches the binary on an ephemeral port with an
// aggressive checkpoint cadence and returns its base URL.
func startServer(bin, state, addrFile string) string {
	server = exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", state, "-drain", "30s",
		"-checkpoint-every", "20000")
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

// stopServer SIGTERMs the server and requires a clean exit.
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

func submitJob(base string) string {
	body, err := json.Marshal(jobReq)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatal(err)
	}
	if st.ID == "" {
		fatal(fmt.Errorf("submit returned no job id (HTTP %d)", resp.StatusCode))
	}
	return st.ID
}

type status struct {
	State   string `json:"state"`
	Error   string `json:"error"`
	Resumed bool   `json:"resumed"`
}

func getStatus(base, id string) status {
	var st status
	if err := json.Unmarshal(get(base+"/v1/jobs/"+id, http.StatusOK), &st); err != nil {
		fatal(err)
	}
	return st
}

func waitUntil(what string, limit time.Duration, cond func() bool) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	fatal(fmt.Errorf("timed out waiting for %s", what))
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
	fmt.Fprintln(os.Stderr, "crashsmoke:", err)
	os.Exit(1)
}
