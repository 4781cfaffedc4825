package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nucasim/internal/atomicio"
)

// Store is the content-addressed on-disk result store. It holds one
// kind of committed entry, in two kinds: jobs, named by their
// canonical-spec SHA-256, and sweeps, named by their sweep ID.
//
//	<dir>/jobs/<hash>/spec.json         canonical spec (the hash preimage)
//	<dir>/jobs/<hash>/epoch.csv         epoch time-series artifact
//	<dir>/jobs/<hash>/manifest.json     SHA-256 of every committed artifact
//	<dir>/jobs/<hash>/result.json       normalized sim.Result (EncodeResult)
//	<dir>/jobs/<hash>/spans.json        wall-clock span trace (Perfetto-loadable)
//	<dir>/jobs/<hash>/checkpoint.bin    crash-safe mid-run state (transient)
//	<dir>/sweeps/<id>/spec.json         canonical sweep spec (sweep.Canonical)
//	<dir>/sweeps/<id>/table.csv         aggregated table, CSV rendering
//	<dir>/sweeps/<id>/manifest.json     SHA-256 of every committed artifact
//	<dir>/sweeps/<id>/table.json        aggregated table, JSON
//	<dir>/quarantine/<hash>.<nanos>/    job entries that failed verification
//	<dir>/quarantine/sweep-<id>.<nanos>/
//
// spec.json is written at submission; the kind's last artifact
// (result.json, table.json) is the commit marker. Each file is
// individually atomic via internal/atomicio, so an entry with a spec
// but no marker is unfinished work a restarted server re-queues (a job
// resuming from checkpoint.bin when one exists). Commit order is the
// other artifacts, then manifest.json (recording the hash of every
// artifact including the marker about to land), then the marker — so a
// committed entry always has a verifiable manifest, and every read path
// checks the bytes against it. An entry that fails verification is
// moved wholesale into quarantine/: the server serves stale-never-wrong
// bytes and reruns the work instead.
//
// spans.json is written after the commit and is deliberately NOT part
// of the marker or the manifest — it records wall-clock observations,
// not simulated results, so a job without one is still complete and
// /v1/jobs/{id}/spans falls back to a live render. A sweep's per-point
// artifacts live in the job entries its points dedupe onto.
type Store struct {
	dir string

	// qmu serializes quarantine moves so two readers discovering the
	// same corruption race on one os.Rename, not on bookkeeping.
	qmu sync.Mutex
	// onQuarantine, when set, observes every successful quarantine move
	// (the Server wires it to the serve.cache_quarantined counter and
	// the process log).
	onQuarantine func(name, reason string)
	// commitHook, when set, is called after each step of Commit and may
	// veto it — the crash-at-point seam the fault matrix uses to
	// reproduce a process dying between artifact writes. Production
	// servers never set it.
	commitHook func(step string) error
}

// Kind describes one kind of store entry.
type Kind struct {
	root  string // directory under the store root
	label string // names an entry in CorruptError subjects
	// prefix tags quarantine names ("sweep-<id>") and commit-hook steps
	// ("sweep_begin"); job names and steps are untagged.
	prefix    string
	artifacts []string // committed artifacts in commit order; the last is the marker
}

var (
	// JobKind entries hold one simulation's result.
	JobKind = &Kind{root: "jobs", label: "job", artifacts: []string{"epoch.csv", "result.json"}}
	// SweepKind entries hold one sweep's aggregated table.
	SweepKind = &Kind{root: "sweeps", label: "sweep", prefix: "sweep", artifacts: []string{"table.csv", "table.json"}}
)

func (k *Kind) marker() string { return k.artifacts[len(k.artifacts)-1] }

func (k *Kind) tag(name, sep string) string {
	if k.prefix == "" {
		return name
	}
	return k.prefix + sep + name
}

const specFile = "spec.json"

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, JobKind.root), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// OnQuarantine registers the observer for quarantine moves. It receives
// the entry's quarantine name: the hash for a job, sweep-<id> for a
// sweep.
func (st *Store) OnQuarantine(f func(name, reason string)) { st.onQuarantine = f }

// SetCommitHook installs the crash-at-point test seam (nil clears it).
func (st *Store) SetCommitHook(f func(step string) error) { st.commitHook = f }

func (st *Store) entryDir(k *Kind, id string) string { return filepath.Join(st.dir, k.root, id) }

func (st *Store) path(k *Kind, id, name string) string {
	return filepath.Join(st.entryDir(k, id), name)
}

// QuarantineDir is where entries that failed integrity verification are
// moved (each with a .<unix-nanos> suffix so repeated corruption of the
// same entry never collides).
func (st *Store) QuarantineDir() string { return filepath.Join(st.dir, "quarantine") }

// SpecPath, ResultPath, EpochCSVPath, ManifestPath, SpansPath and
// CheckpointPath name a job's files; CheckpointPath is handed to
// sim.Config.CheckpointPath.
func (st *Store) SpecPath(hash string) string       { return st.path(JobKind, hash, specFile) }
func (st *Store) ResultPath(hash string) string     { return st.path(JobKind, hash, "result.json") }
func (st *Store) EpochCSVPath(hash string) string   { return st.path(JobKind, hash, "epoch.csv") }
func (st *Store) ManifestPath(hash string) string   { return st.path(JobKind, hash, manifestFile) }
func (st *Store) SpansPath(hash string) string      { return st.path(JobKind, hash, "spans.json") }
func (st *Store) CheckpointPath(hash string) string { return st.path(JobKind, hash, "checkpoint.bin") }

// PutSpans writes the job's span trace atomically. Called after
// PutResult; spans.json never gates job completion.
func (st *Store) PutSpans(hash string, render func(w io.Writer) error) error {
	return atomicio.WriteFile(st.SpansPath(hash), render)
}

// ReadSpans returns the committed spans.json bytes.
func (st *Store) ReadSpans(hash string) ([]byte, error) {
	return os.ReadFile(st.SpansPath(hash))
}

// HasCheckpoint reports a resumable mid-run snapshot for hash.
func (st *Store) HasCheckpoint(hash string) bool {
	_, err := os.Stat(st.CheckpointPath(hash))
	return err == nil
}

// DropCheckpoint deletes hash's checkpoint (stale after a commit, or
// undecodable — either way the job no longer resumes from it).
func (st *Store) DropCheckpoint(hash string) { os.Remove(st.CheckpointPath(hash)) }

func writeFile(path string, data []byte) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Create persists the canonical spec for id, creating its entry
// directory. Called at submission so accepted work survives a restart.
func (st *Store) Create(k *Kind, id string, spec []byte) error {
	if err := os.MkdirAll(st.entryDir(k, id), 0o755); err != nil {
		return err
	}
	return writeFile(st.path(k, id, specFile), spec)
}

// PutSpec is Create for a job.
func (st *Store) PutSpec(hash string, spec []byte) error { return st.Create(JobKind, hash, spec) }

// Requeue re-creates the entry of a spec that Pending salvaged from a
// quarantined directory, so the rerun commits into a fresh entry like
// any queued work. An entry still in place is left alone.
func (st *Store) Requeue(k *Kind, id string, spec []byte) error {
	if _, err := os.Stat(st.path(k, id, specFile)); err == nil {
		return nil
	}
	return st.Create(k, id, spec)
}

func (st *Store) commitStep(k *Kind, step string) error {
	if st.commitHook == nil {
		return nil
	}
	return st.commitHook(k.tag(step, "_"))
}

// Commit publishes id's artifacts, given in the kind's commit order:
// every artifact but the marker, then the manifest covering the spec
// and every artifact, then the marker. The commit hook sees "begin",
// then one step per file: the artifact name with "." as "_",
// "manifest", and "result" for the marker. A crash between any two
// steps leaves either an uncommitted entry (no marker → the work
// reruns) or a committed, fully verifiable one — never a committed
// entry the manifest cannot vouch for.
func (st *Store) Commit(k *Kind, id string, data ...[]byte) error {
	if err := st.commitStep(k, "begin"); err != nil {
		return err
	}
	spec, err := os.ReadFile(st.path(k, id, specFile))
	if err != nil {
		return fmt.Errorf("serve: committing %s %s without a persisted spec: %w", k.label, id, err)
	}
	m := manifest{Version: manifestVersion, Artifacts: map[string]string{specFile: artifactDigest(spec)}}
	for i, name := range k.artifacts {
		m.Artifacts[name] = artifactDigest(data[i])
	}
	last := len(k.artifacts) - 1
	for i, name := range k.artifacts[:last] {
		if err := writeFile(st.path(k, id, name), data[i]); err != nil {
			return err
		}
		if err := st.commitStep(k, strings.ReplaceAll(name, ".", "_")); err != nil {
			return err
		}
	}
	mbytes, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(st.path(k, id, manifestFile), mbytes); err != nil {
		return err
	}
	if err := st.commitStep(k, "manifest"); err != nil {
		return err
	}
	if err := writeFile(st.path(k, id, k.marker()), data[last]); err != nil {
		return err
	}
	return st.commitStep(k, "result")
}

// PutResult commits a job's artifacts, then drops its now-obsolete
// checkpoint.
func (st *Store) PutResult(hash string, result, epochCSV []byte) error {
	if err := st.Commit(JobKind, hash, epochCSV, result); err != nil {
		return err
	}
	st.DropCheckpoint(hash)
	return nil
}

// verify checks id's entry: the marker's stat error when it is
// uncommitted (a plain miss, not an integrity violation), a
// *CorruptError when a committed entry fails its manifest, else nil.
func (st *Store) verify(k *Kind, id string) error {
	if _, err := os.Stat(st.path(k, id, k.marker())); err != nil {
		return err
	}
	if cerr := verifyManifest(st.entryDir(k, id), k, id); cerr != nil {
		return cerr
	}
	return nil
}

// Verify is the read-only integrity check: it reports whether id's
// committed entry matches its manifest without quarantining anything —
// the building block for offline fsck tooling (artifactcheck -store),
// where the operator wants a report, not a remediation. Uncommitted
// entries verify clean: they are pending work, not corruption.
func (st *Store) Verify(k *Kind, id string) error {
	var cerr *CorruptError
	if err := st.verify(k, id); errors.As(err, &cerr) {
		return err
	}
	return nil
}

// check is verify that quarantines a corrupt entry before returning, so
// a caller that sees a *CorruptError knows the damaged bytes are
// already out of serving reach.
func (st *Store) check(k *Kind, id string) error {
	err := st.verify(k, id)
	var cerr *CorruptError
	if errors.As(err, &cerr) {
		st.quarantine(k, id, cerr.Artifact+": "+cerr.Reason)
	}
	return err
}

// Has reports a committed, integrity-verified entry for id. Corrupt
// entries are quarantined as a side effect and read as absent — the
// caller reruns the work rather than serving wrong bytes.
func (st *Store) Has(k *Kind, id string) bool { return st.check(k, id) == nil }

// Read returns the named artifact of id's committed entry after the
// full manifest verification. The verify pass hashes the same file it
// returns, so a reader can only receive bytes a manifest vouched for
// (modulo a write racing between the two reads — and the only writer
// of committed artifacts is the atomic commit itself). On corruption
// the entry is quarantined and a *CorruptError returned.
func (st *Store) Read(k *Kind, id, name string) ([]byte, error) {
	if err := st.check(k, id); err != nil {
		return nil, err
	}
	return os.ReadFile(st.path(k, id, name))
}

// ReadResult and ReadEpochCSV Read a job's committed artifacts.
func (st *Store) ReadResult(hash string) ([]byte, error) {
	return st.Read(JobKind, hash, "result.json")
}
func (st *Store) ReadEpochCSV(hash string) ([]byte, error) {
	return st.Read(JobKind, hash, "epoch.csv")
}

// quarantine moves id's whole entry directory into quarantine/ and
// records why. Idempotent under races: whichever caller wins the rename
// reports the move; the loser finds the marker gone and stays quiet.
func (st *Store) quarantine(k *Kind, id, reason string) {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	// Re-check the commit marker under the lock: it is gone when a
	// racing reader already quarantined (or Remove'd) the entry, and a
	// directory without it is unfinished work (a racing Remove +
	// resubmission), not corruption — moving it would steal an
	// in-flight commit's directory out from under the writer.
	if _, err := os.Stat(st.path(k, id, k.marker())); err != nil {
		return
	}
	if err := os.MkdirAll(st.QuarantineDir(), 0o755); err != nil {
		return
	}
	name := k.tag(id, "-")
	dst := filepath.Join(st.QuarantineDir(), name+"."+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := os.Rename(st.entryDir(k, id), dst); err != nil {
		return
	}
	// Best effort: the reason travels with the evidence for the operator.
	_ = writeFile(filepath.Join(dst, "REASON"), []byte(reason+"\n"))
	if st.onQuarantine != nil {
		st.onQuarantine(name, reason)
	}
}

// Remove deletes everything stored for id (canceled or failed work, so
// a restart does not resurrect it). It takes the quarantine lock so a
// removal never interleaves with a quarantine move of the same
// directory.
func (st *Store) Remove(k *Kind, id string) error {
	st.qmu.Lock()
	defer st.qmu.Unlock()
	return os.RemoveAll(st.entryDir(k, id))
}

// Dirs lists every entry of kind k currently in the store (committed or
// not); quarantined entries live elsewhere and are never listed.
func (st *Store) Dirs(k *Kind) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, k.root))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// Pending lists entries of kind k with a spec but no committed marker —
// work that was accepted but unfinished when the previous process
// stopped. The returned map holds each entry's canonical spec bytes.
// Committed entries that fail verification are quarantined here (this
// is the recovery scan's integrity pass) and reported as pending when
// their spec is still readable, so the work reruns once Requeue has
// re-created its entry.
func (st *Store) Pending(k *Kind) (map[string][]byte, error) {
	ids, err := st.Dirs(k)
	if err != nil {
		return nil, err
	}
	pending := make(map[string][]byte)
	for _, id := range ids {
		// Read the spec before the integrity check: quarantining moves
		// the directory, and the spec is what lets the work rerun.
		spec, specErr := os.ReadFile(st.path(k, id, specFile))
		if st.Has(k, id) {
			continue
		}
		if specErr != nil {
			// A directory without a readable spec is junk (e.g. a crash
			// between MkdirAll and the spec write); skip it.
			continue
		}
		pending[id] = spec
	}
	return pending, nil
}
