package rmw

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

func TestStoreLevelCheckpointRestore(t *testing.T) {
	src := openTest(t, Options{WriteBufferBytes: 1})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 30; i++ {
		if err := src.Put([]byte(fmt.Sprintf("k%02d", i)), w, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some (dead log entries) and consume others.
	for i := 0; i < 10; i++ {
		src.Put([]byte(fmt.Sprintf("k%02d", i)), w, []byte(fmt.Sprintf("V%02d", i)))
	}
	for i := 20; i < 30; i++ {
		if _, ok, err := src.Get([]byte(fmt.Sprintf("k%02d", i)), w); !ok || err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := fullCheckpoint(src, ckpt); err != nil {
		t.Fatal(err)
	}

	dst, err := Open(Options{Dir: filepath.Join(t.TempDir(), "restored"), WriteBufferBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Destroy()
	if err := dst.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if dst.LiveStates() != 20 {
		t.Fatalf("restored LiveStates = %d, want 20", dst.LiveStates())
	}
	for i := 0; i < 30; i++ {
		agg, ok, err := dst.Get([]byte(fmt.Sprintf("k%02d", i)), w)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i < 10:
			if !ok || string(agg) != fmt.Sprintf("V%02d", i) {
				t.Fatalf("k%02d = %q,%v; want overwritten value", i, agg, ok)
			}
		case i < 20:
			if !ok || string(agg) != fmt.Sprintf("v%02d", i) {
				t.Fatalf("k%02d = %q,%v", i, agg, ok)
			}
		default:
			if ok {
				t.Fatalf("consumed k%02d resurrected", i)
			}
		}
	}
	// The restored store keeps working.
	if err := dst.Put([]byte("new"), w, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := dst.Get([]byte("new"), w); !ok {
		t.Fatal("post-restore put/get failed")
	}
}

func TestRestoreIntoDirtyStoreFails(t *testing.T) {
	src := openTest(t, Options{})
	src.Put([]byte("k"), window.Window{Start: 0, End: 100}, []byte("v"))
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if err := fullCheckpoint(src, ckpt); err != nil {
		t.Fatal(err)
	}
	dirty := openTest(t, Options{})
	dirty.Put([]byte("x"), window.Window{Start: 0, End: 100}, []byte("y"))
	if err := dirty.Restore(ckpt); err == nil {
		t.Error("restore into dirty store accepted")
	}
}

func TestCheckpointClosed(t *testing.T) {
	s := openTest(t, Options{})
	s.Close()
	if err := fullCheckpoint(s, t.TempDir()); err != ErrClosed {
		t.Errorf("Checkpoint: %v", err)
	}
	if err := s.Restore(t.TempDir()); err != ErrClosed {
		t.Errorf("Restore: %v", err)
	}
}

func TestDiskUsageAndFlush(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	s.Put([]byte("k"), w, []byte("v"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.DiskUsage(); err != nil || n == 0 {
		t.Errorf("DiskUsage = %d, %v", n, err)
	}
	if s.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after Flush", s.BufferedBytes())
	}
}

// deltaMarks counts the recorded delta marks.
func deltaMarks(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deltas)
}

// TestNeverCheckpointedStoreRecordsNoMarks: delta marks exist for the
// next checkpoint, so a store that never checkpoints must not grow them
// — memory stays bounded by live state, not by how many identities
// ever passed through.
func TestNeverCheckpointedStoreRecordsNoMarks(t *testing.T) {
	s := openTest(t, Options{WriteBufferBytes: 64 << 20})
	w := window.Window{Start: 0, End: 100}
	for i := 0; i < 100000; i++ {
		k := []byte(fmt.Sprintf("k%06d", i))
		if err := s.Put(k, w, []byte("agg")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(k, w); !ok || err != nil {
			t.Fatalf("take %s: ok=%v err=%v", k, ok, err)
		}
	}
	if n := deltaMarks(s); n != 0 {
		t.Fatalf("never-checkpointed store holds %d delta marks, want 0", n)
	}
}

// TestMutationBetweenCutAndCommitReachesNextDelta: the first cut arms
// the marks, so a Put landing after the base cut but before the base
// commits is not in the base and must be shipped by the next delta.
func TestMutationBetweenCutAndCommitReachesNextDelta(t *testing.T) {
	s := openTest(t, Options{})
	w := window.Window{Start: 0, End: 100}
	if err := s.Put([]byte("early"), w, []byte("e")); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base")
	res, err := s.CheckpointDelta(base, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("late"), w, []byte("l")); err != nil {
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
	if m, err := ckpt.ReadMeta(faultfs.OS, next); err != nil || len(m.File(deltaLogical).Segments) != 2 {
		t.Fatalf("next checkpoint does not extend the base with a delta segment: %+v, %v", m, err)
	}
	dst := openTest(t, Options{})
	if err := dst.Restore(next); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"early": "e", "late": "l"} {
		got, ok, err := dst.Get([]byte(k), w)
		if err != nil || !ok || string(got) != want {
			t.Fatalf("%s after delta restore = %q,%v,%v; want %q", k, got, ok, err, want)
		}
	}
}
