package aur

import (
	"fmt"
	"path/filepath"
	"testing"

	"flowkv/internal/ckpt"
	"flowkv/internal/faultfs"
	"flowkv/internal/window"
)

// fullCheckpoint writes a chain-base checkpoint of s into dir: the
// instance's only checkpoint writer, with no parent.
func fullCheckpoint(s *Store, dir string) error {
	_, err := s.CheckpointDelta(dir, nil, "")
	return err
}

func TestReadNonDestructive(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.5})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v1"), w, 0) // flushed
	s.Append([]byte("k"), []byte("v2"), w, 1) // flushed
	// Probe repeatedly: values must survive and stay ordered.
	for i := 0; i < 3; i++ {
		vals, err := s.Read([]byte("k"), w)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 2 || string(vals[0]) != "v1" || string(vals[1]) != "v2" {
			t.Fatalf("probe %d: %q", i, vals)
		}
	}
	// A buffered value joins the probe result without being consumed.
	bigBuf := openTest(t, Options{WriteBufferBytes: 1 << 20})
	bigBuf.Append([]byte("k"), []byte("only-buffered"), w, 0)
	vals, err := bigBuf.Read([]byte("k"), w)
	if err != nil || len(vals) != 1 || string(vals[0]) != "only-buffered" {
		t.Fatalf("buffered probe: %q %v", vals, err)
	}
	// Get after Read still consumes everything exactly once.
	got := mustGet(t, s, "k", w)
	if len(got) != 2 {
		t.Fatalf("final get: %v", got)
	}
	if got := mustGet(t, s, "k", w); got != nil {
		t.Fatalf("state survived get: %v", got)
	}
}

func TestReadMissingAndClosed(t *testing.T) {
	s := openTest(t, Options{})
	if vals, err := s.Read([]byte("none"), window.Window{Start: 1, End: 2}); err != nil || vals != nil {
		t.Fatalf("missing: %q %v", vals, err)
	}
	s.Close()
	if _, err := s.Read(nil, window.Window{}); err != ErrClosed {
		t.Errorf("closed: %v", err)
	}
}

func TestReadLoadsPrefetchAndCountsRatio(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.5})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v"), w, 0)
	if _, err := s.Read([]byte("k"), w); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.HitCount()
	if misses != 1 {
		t.Fatalf("first probe should miss: %d/%d", hits, misses)
	}
	if _, err := s.Read([]byte("k"), w); err != nil {
		t.Fatal(err)
	}
	hits, _ = s.HitCount()
	if hits != 1 {
		t.Fatalf("second probe should hit the retained prefetch: hits=%d", hits)
	}
}

func TestStoreLevelCheckpointRestore(t *testing.T) {
	src := openTest(t, Options{WriteBufferBytes: 1, ReadBatchRatio: 0.1})
	w1 := window.Window{Start: 0, End: gap}
	w2 := window.Window{Start: 500, End: 500 + gap}
	for i := 0; i < 10; i++ {
		src.Append([]byte("a"), []byte(fmt.Sprintf("a%d", i)), w1, int64(i))
		src.Append([]byte("b"), []byte(fmt.Sprintf("b%d", i)), w2, int64(500+i))
	}
	// Consume a before checkpoint.
	if got := mustGet(t, src, "a", w1); len(got) != 10 {
		t.Fatal("pre-ckpt get")
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := fullCheckpoint(src, ckpt); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(Options{
		Dir:              filepath.Join(t.TempDir(), "restored"),
		WriteBufferBytes: 1,
		ReadBatchRatio:   0.1,
		Predictor:        window.SessionPredictor{Gap: gap},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Destroy()
	if err := dst.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if dst.LiveStates() != 1 {
		t.Fatalf("restored LiveStates = %d, want 1 (b only)", dst.LiveStates())
	}
	if got := mustGet(t, dst, "a", w1); got != nil {
		t.Fatalf("consumed state resurrected: %v", got)
	}
	got := mustGet(t, dst, "b", w2)
	if len(got) != 10 || got[0] != "b0" || got[9] != "b9" {
		t.Fatalf("restored b = %v", got)
	}
	// Restored ETTs enable prediction again: appends update the stat row.
	if err := dst.Append([]byte("c"), []byte("v"), w2, 600); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreIntoDirtyStoreFails(t *testing.T) {
	src := openTest(t, Options{})
	src.Append([]byte("k"), []byte("v"), window.Window{Start: 0, End: gap}, 0)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := fullCheckpoint(src, ckpt); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Append([]byte("x"), []byte("y"), window.Window{Start: 0, End: gap}, 0)
	if err := dirty.Restore(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointOnClosedStore(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if err := fullCheckpoint(s, t.TempDir()); err != ErrClosed {
		t.Errorf("Checkpoint on closed: %v", err)
	}
	if err := s.Restore(t.TempDir()); err != ErrClosed {
		t.Errorf("Restore on closed: %v", err)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 1})
	w := window.Window{Start: 0, End: gap}
	s.Append([]byte("k"), []byte("v"), w, 0)
	if s.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after forced flush", s.BufferedBytes())
	}
	if n, err := s.DiskUsage(); err != nil || n == 0 {
		t.Errorf("DiskUsage = %d, %v", n, err)
	}
	mustGet(t, s, "k", w)
	if s.IndexScans() == 0 {
		t.Error("IndexScans not counted")
	}
	if s.PrefetchedBytes() != 0 {
		t.Errorf("PrefetchedBytes = %d after consuming", s.PrefetchedBytes())
	}
}

// statMarks counts the recorded Stat-table delta marks.
func statMarks(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.statDeltas)
}

// TestNeverCheckpointedStoreRecordsNoMarks: Stat delta marks exist for
// the next checkpoint, so a store that never checkpoints must not grow
// them — memory stays bounded by live state, not by how many
// identities ever passed through.
func TestNeverCheckpointedStoreRecordsNoMarks(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 64 << 20})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 100000; i++ {
		k := []byte(fmt.Sprintf("k%06d", i))
		if err := s.Append(k, []byte("v"), w, 10); err != nil {
			t.Fatal(err)
		}
		if vals, err := s.Get(k, w); len(vals) != 1 || err != nil {
			t.Fatalf("take %s: %q, %v", k, vals, err)
		}
	}
	if n := statMarks(s); n != 0 {
		t.Fatalf("never-checkpointed store holds %d stat marks, want 0", n)
	}
}

// TestMutationBetweenCutAndCommitReachesNextDelta: the first cut arms
// the marks, so a Stat row created after the base cut but before the
// base commits is not in the base and must be shipped by the next
// delta's stat stream.
func TestMutationBetweenCutAndCommitReachesNextDelta(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	if err := s.Append([]byte("early"), []byte("e"), w, 10); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base")
	res, err := s.CheckpointDelta(base, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("late"), []byte("l"), w, 20); err != nil {
		t.Fatal(err)
	}
	res.Commit()
	parent, err := ckpt.ReadMeta(faultfs.OS, base)
	if err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(t.TempDir(), "next")
	if _, err := s.CheckpointDelta(next, parent, base); err != nil {
		t.Fatal(err)
	}
	if m, err := ckpt.ReadMeta(faultfs.OS, next); err != nil || len(m.File(statDeltaLogical).Segments) != 2 {
		t.Fatalf("next checkpoint does not extend the base stat stream with a delta segment: %+v, %v", m, err)
	}
	dst := openTest(t, Options{})
	if err := dst.Restore(next); err != nil {
		t.Fatal(err)
	}
	for k, ts := range map[string]int64{"early": 10, "late": 20} {
		dst.mu.Lock()
		st := dst.stat[id{key: k, w: w}]
		dst.mu.Unlock()
		if st == nil || st.maxTS != ts {
			t.Fatalf("%s Stat row after delta restore = %+v, want maxTS %d", k, st, ts)
		}
	}
}
