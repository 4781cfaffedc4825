package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// putEntry commits a complete, verifiable entry of kind k and returns
// the bytes it wrote, in the kind's commit order.
func putEntry(t *testing.T, st *Store, k *Kind, id string) (artifacts [][]byte) {
	t.Helper()
	artifacts = [][]byte{[]byte("epoch,value\n1,2\n"), []byte(`{"fake":"result for ` + id + `"}`)}
	if err := st.Create(k, id, []byte(`{"spec":"`+id+`"}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(k, id, artifacts...); err != nil {
		t.Fatal(err)
	}
	return artifacts
}

// storeKinds runs a store test once per entry kind.
func storeKinds(t *testing.T, test func(t *testing.T, k *Kind)) {
	for _, k := range []*Kind{JobKind, SweepKind} {
		t.Run(k.root, func(t *testing.T) { test(t, k) })
	}
}

// TestStoreConcurrentReadRemove hammers one hash with concurrent
// verified reads, removals, and re-commits. The invariant under test
// (with the race detector watching the bookkeeping): a read either
// fails or returns exactly the committed bytes — a torn or
// half-removed entry never escapes as data.
func TestStoreConcurrentReadRemove(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hash = "feedface00000000000000000000000000000000000000000000000000000000"
	artifacts := putEntry(t, st, JobKind, hash)
	wantCSV, want := artifacts[0], artifacts[1]

	const iters = 200
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // verified result reads
		defer wg.Done()
		for i := 0; i < iters; i++ {
			data, err := st.ReadResult(hash)
			if err == nil && !bytes.Equal(data, want) {
				t.Errorf("ReadResult returned wrong bytes: %q", data)
				return
			}
		}
	}()
	go func() { // verified CSV reads
		defer wg.Done()
		for i := 0; i < iters; i++ {
			data, err := st.ReadEpochCSV(hash)
			if err == nil && !bytes.Equal(data, wantCSV) {
				t.Errorf("ReadEpochCSV returned wrong bytes: %q", data)
				return
			}
		}
	}()
	go func() { // cache-hit probes
		defer wg.Done()
		for i := 0; i < iters; i++ {
			st.Has(JobKind, hash)
		}
	}()
	go func() { // removal / re-commit churn
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if err := st.Remove(JobKind, hash); err != nil {
				t.Errorf("Remove: %v", err)
				return
			}
			if err := st.PutSpec(hash, []byte(`{"spec":"`+hash+`"}`)); err != nil {
				t.Errorf("PutSpec: %v", err)
				return
			}
			if err := st.PutResult(hash, want, wantCSV); err != nil {
				t.Errorf("PutResult: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestStoreConcurrentQuarantine corrupts a committed entry, then lets
// many readers discover it at once: exactly one quarantine move must
// happen, and every reader must come back empty-handed (error or
// cache miss), never with the corrupt bytes.
func TestStoreConcurrentQuarantine(t *testing.T) {
	storeKinds(t, func(t *testing.T, k *Kind) {
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var moves int
		var mu sync.Mutex
		st.OnQuarantine(func(name, reason string) {
			mu.Lock()
			moves++
			mu.Unlock()
		})
		const id = "deadbeef00000000000000000000000000000000000000000000000000000000"
		putEntry(t, st, k, id)
		if err := os.WriteFile(st.path(k, id, k.marker()), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if data, err := st.Read(k, id, k.marker()); err == nil {
					t.Errorf("corrupt read succeeded with %q", data)
				}
				if st.Has(k, id) {
					t.Error("Has true for corrupt entry")
				}
			}()
		}
		wg.Wait()
		if moves != 1 {
			t.Fatalf("quarantine moved %d times, want exactly 1", moves)
		}
		entries, err := os.ReadDir(st.QuarantineDir())
		if err != nil || len(entries) != 1 {
			t.Fatalf("quarantine dir: %v entries, err %v", len(entries), err)
		}
		reason, err := os.ReadFile(filepath.Join(st.QuarantineDir(), entries[0].Name(), "REASON"))
		if err != nil || len(reason) == 0 {
			t.Fatalf("quarantined entry lacks a REASON file: %v", err)
		}
	})
}

// TestPendingSkipsQuarantineAndJunk covers the recovery scan's edge
// cases: quarantined directories are invisible to Pending (they live
// outside the kind's root), stray non-directory files under the root
// are ignored, and a spec-less directory (crash between MkdirAll and
// the spec write) is skipped as junk rather than resurrected.
func TestPendingSkipsQuarantineAndJunk(t *testing.T) {
	storeKinds(t, func(t *testing.T, k *Kind) {
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		const good = "0000000000000000000000000000000000000000000000000000000000000001"
		const bad = "0000000000000000000000000000000000000000000000000000000000000002"
		if err := st.Create(k, good, []byte(`{"spec":"good"}`)); err != nil {
			t.Fatal(err)
		}
		putEntry(t, st, k, bad)
		if err := os.WriteFile(st.path(k, bad, k.artifacts[0]), []byte("tampered"), 0o644); err != nil {
			t.Fatal(err)
		}
		// Stray file and spec-less dir under the kind's root.
		if err := os.WriteFile(filepath.Join(st.dir, k.root, "stray.tmp"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(st.entryDir(k, "000000000000000000000000000000000000000000000000000000000000dead"), 0o755); err != nil {
			t.Fatal(err)
		}

		// First scan: the corrupt entry is quarantined but still reported
		// pending (its spec was salvaged first), the unfinished entry is
		// pending, junk is skipped.
		pending, err := st.Pending(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pending[good]; !ok {
			t.Error("unfinished entry missing from Pending")
		}
		if _, ok := pending[bad]; !ok {
			t.Error("corrupt entry missing from Pending (should rerun)")
		}
		if len(pending) != 2 {
			t.Errorf("Pending returned %d entries, want 2: %v", len(pending), pending)
		}

		// Second scan: the quarantined directory is gone from the root,
		// so the corrupt entry no longer appears — quarantine is not a
		// work queue.
		pending, err = st.Pending(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pending[bad]; ok {
			t.Error("quarantined entry reappeared in Pending")
		}
		if len(pending) != 1 {
			t.Errorf("second Pending returned %d entries, want 1", len(pending))
		}
	})
}

// TestConcurrentSubmitSameSpec races identical submissions against a
// live server: every response must name the same job, exactly one
// execution happens, and the final artifact verifies.
func TestConcurrentSubmitSameSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 64})
	req := smallJob(31)

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := submit(t, ts, req)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	waitFor(t, "job done", func() bool {
		return getStatus(t, ts, ids[0]).State == StateDone
	})
	body := fetch(t, ts.URL+"/v1/jobs/"+ids[0]+"/result", http.StatusOK)
	if len(body) == 0 {
		t.Fatal("empty result body")
	}
}
