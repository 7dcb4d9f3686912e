package faultfs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func stallFile(t *testing.T, inj *Injector) File {
	t.Helper()
	f, err := inj.Create(filepath.Join(t.TempDir(), "stall.dat"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// syncFreeFS is a base FS whose files fsync for free, so a test timing
// an injected stall measures the stall rather than the device's own
// flush latency, which on a busy disk can exceed the stall itself.
type syncFreeFS struct{ FS }

type syncFreeFile struct{ File }

func (syncFreeFile) Sync() error { return nil }

func (s syncFreeFS) Create(path string) (File, error) {
	f, err := s.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return syncFreeFile{f}, nil
}

func TestStallDelaySlowsOpAndSucceeds(t *testing.T) {
	inj := NewInjector(OS)
	f := stallFile(t, inj)
	inj.SetRule(Rule{Op: OpSync, Delay: 30 * time.Millisecond, Class: ClassPersistent})
	start := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatalf("stalled sync must succeed, got %v", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("sync returned in %v, want >= ~30ms of injected delay", el)
	}
	if inj.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", inj.Hits())
	}
}

func TestStallDelayRampGrows(t *testing.T) {
	inj := NewInjector(syncFreeFS{OS})
	f := stallFile(t, inj)
	inj.SetRule(Rule{Op: OpSync, Delay: 2 * time.Millisecond, DelayRamp: 8 * time.Millisecond, Class: ClassPersistent})
	var first, third time.Duration
	for hit := 1; hit <= 3; hit++ {
		start := time.Now()
		if err := f.Sync(); err != nil {
			t.Fatalf("sync hit %d: %v", hit, err)
		}
		el := time.Since(start)
		switch hit {
		case 1:
			first = el
		case 3:
			third = el
		}
	}
	// Hit 1 sleeps 2ms, hit 3 sleeps 2+16=18ms; require clear growth
	// with slack for scheduler noise.
	if third < first+8*time.Millisecond {
		t.Fatalf("ramp did not grow: first=%v third=%v", first, third)
	}
}

func TestStallJitterIsDeterministic(t *testing.T) {
	// The jitter term depends only on the hit ordinal, so two injectors
	// running the same rule decide identical delays.
	delays := func() []time.Duration {
		inj := NewInjector(OS)
		inj.SetRule(Rule{Op: OpSync, Delay: time.Millisecond, DelayJitter: 50 * time.Millisecond, Class: ClassPersistent})
		var out []time.Duration
		for hit := int64(1); hit <= 4; hit++ {
			inj.mu.Lock()
			inj.ops++
			_, st, err := inj.decide(OpSync, "x")
			inj.mu.Unlock()
			if err != nil {
				t.Fatalf("decide: %v", err)
			}
			out = append(out, st.delay)
		}
		return out
	}
	a, b := delays(), delays()
	distinct := map[time.Duration]bool{}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("jitter not deterministic at hit %d: %v vs %v", k+1, a[k], b[k])
		}
		if a[k] < time.Millisecond || a[k] >= 51*time.Millisecond {
			t.Fatalf("hit %d delay %v outside [base, base+jitter)", k+1, a[k])
		}
		distinct[a[k]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("jitter produced no variation across hits: %v", a)
	}
}

func TestStallHangParksUntilRelease(t *testing.T) {
	inj := NewInjector(OS)
	f := stallFile(t, inj)
	inj.SetRule(Rule{Op: OpSync, Hang: true, Class: ClassPersistent})
	done := make(chan error, 1)
	go func() { done <- f.Sync() }()
	deadline := time.Now().Add(10 * time.Second)
	for inj.Stalled() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sync never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("hung sync returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	inj.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released sync must succeed, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("sync still parked after Release")
	}
	if inj.Stalled() != 0 {
		t.Fatalf("Stalled = %d after release, want 0", inj.Stalled())
	}
	// After Release, later matches pass without blocking.
	if err := f.Sync(); err != nil {
		t.Fatalf("post-release sync: %v", err)
	}
}

func TestStallResetReleasesParkedOps(t *testing.T) {
	inj := NewInjector(OS)
	f := stallFile(t, inj)
	inj.SetRule(Rule{Op: OpWrite, Hang: true, Class: ClassPersistent})
	done := make(chan error, 1)
	go func() {
		_, err := f.Write([]byte("x"))
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for inj.Stalled() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	inj.Reset()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after Reset: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Reset did not release the parked write")
	}
}

func TestStallIsOrthogonalToErrors(t *testing.T) {
	inj := NewInjector(OS)
	f := stallFile(t, inj)
	// Err and Crash are ignored on a stall rule: the op succeeds and the
	// filesystem does not freeze.
	inj.SetRule(Rule{Op: OpSync, Delay: time.Millisecond, Err: ErrDiskIO, Crash: true})
	if err := f.Sync(); err != nil {
		t.Fatalf("stall rule leaked its Err: %v", err)
	}
	if inj.Crashed() {
		t.Fatalf("stall rule crashed the filesystem")
	}
	if _, err := f.Write([]byte("after")); err != nil {
		t.Fatalf("write after stall: %v", err)
	}
}

func TestStallOnReadPath(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r.dat"), []byte("hello"), 0o644); err != nil {
		t.Fatalf("seed: %v", err)
	}
	inj := NewInjector(OS)
	inj.SetRule(Rule{Op: OpRead, Delay: 20 * time.Millisecond, Class: ClassPersistent})
	start := time.Now()
	b, err := inj.ReadFile(filepath.Join(dir, "r.dat"))
	if err != nil || string(b) != "hello" {
		t.Fatalf("read = %q, %v", b, err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("read returned in %v, want the injected delay", el)
	}
}
