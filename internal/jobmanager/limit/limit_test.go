package limit

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

// allStrategies is every registered strategy; meterStrategies are the
// ones that pace like a refilling meter (burst then per-unit waits of
// 1/Rate) — the sliding window instead recovers on a cliff when old
// admissions age out, so wait-magnitude tests run only over the meters.
var (
	allStrategies   = []string{"token_bucket", "gcra", "leaky_bucket", "sliding_window"}
	meterStrategies = []string{"token_bucket", "gcra", "leaky_bucket"}
)

func TestRegistryStrategies(t *testing.T) {
	names := Strategies()
	want := make(map[string]bool, len(allStrategies))
	for _, n := range allStrategies {
		want[n] = false
	}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("strategy %q not registered (have %v)", n, names)
		}
	}
	if _, err := New("nope", Config{Rate: 1}); err == nil {
		t.Fatal("unknown strategy must error")
	}
	for _, n := range allStrategies {
		l, err := New(n, Config{Rate: 10, Burst: 5})
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if l.Name() != n {
			t.Fatalf("Name() = %q, want %q", l.Name(), n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{{Rate: 0}, {Rate: -1}, {Rate: math.Inf(1)}, {Rate: math.NaN()}, {Rate: 1, Burst: -2}} {
		for _, name := range allStrategies {
			if _, err := New(name, bad); err == nil {
				t.Fatalf("%s accepted bad config %+v", name, bad)
			}
		}
	}
}

// Every strategy must satisfy the same admission contract; run the
// shared battery over each of names.
func strategies(t *testing.T, names []string, cfg Config, fn func(t *testing.T, l Limiter)) {
	t.Helper()
	for _, name := range names {
		l, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		t.Run(name, func(t *testing.T) { fn(t, l) })
	}
}

func eachStrategy(t *testing.T, cfg Config, fn func(t *testing.T, l Limiter)) {
	t.Helper()
	strategies(t, meterStrategies, cfg, fn)
}

func TestBurstThenThrottle(t *testing.T) {
	eachStrategy(t, Config{Rate: 10, Burst: 5}, func(t *testing.T, l Limiter) {
		// The first Burst units admit immediately.
		for i := 0; i < 5; i++ {
			w, ok := l.Reserve(t0, 1, -1)
			if !ok || w != 0 {
				t.Fatalf("burst unit %d: wait=%v ok=%v, want immediate", i, w, ok)
			}
		}
		// The next unit must wait about one emission interval (100ms).
		w, ok := l.Reserve(t0, 1, -1)
		if !ok {
			t.Fatal("unbounded-wait reserve refused")
		}
		if w < 50*time.Millisecond || w > 150*time.Millisecond {
			t.Fatalf("post-burst wait = %v, want ~100ms", w)
		}
	})
}

func TestShedDoesNotCharge(t *testing.T) {
	eachStrategy(t, Config{Rate: 10, Burst: 2}, func(t *testing.T, l Limiter) {
		if _, ok := l.Reserve(t0, 2, 0); !ok {
			t.Fatal("within-burst reserve refused")
		}
		// Bucket empty: zero-wait admission must now refuse...
		if _, ok := l.Reserve(t0, 1, 0); ok {
			t.Fatal("empty limiter admitted with maxWait=0")
		}
		// ...and refusal must not have charged: after one emission
		// interval a single unit admits immediately again.
		if w, ok := l.Reserve(at(100*time.Millisecond), 1, 0); !ok || w != 0 {
			t.Fatalf("recovered unit: wait=%v ok=%v, want immediate", w, ok)
		}
	})
}

func TestOversizeRequestRefused(t *testing.T) {
	strategies(t, allStrategies, Config{Rate: 10, Burst: 4}, func(t *testing.T, l Limiter) {
		if _, ok := l.Reserve(t0, 100, -1); ok {
			t.Fatal("request larger than burst admitted")
		}
		// The refusal charged nothing.
		if w, ok := l.Reserve(t0, 4, 0); !ok || w != 0 {
			t.Fatalf("burst after oversize refusal: wait=%v ok=%v", w, ok)
		}
	})
}

func TestSteadyRateConverges(t *testing.T) {
	// Admitting with unbounded wait, the cumulative admitted count over
	// a simulated second must approach Rate + Burst (every strategy
	// meters the same sustained rate).
	strategies(t, allStrategies, Config{Rate: 100, Burst: 10}, func(t *testing.T, l Limiter) {
		admitted := 0
		now := t0
		for i := 0; i < 2000; i++ {
			w, ok := l.Reserve(now, 1, 0)
			if ok && w == 0 {
				admitted++
			}
			now = now.Add(time.Millisecond) // 1ms per attempt: 2 simulated seconds
		}
		// 2s at 100/s plus the initial burst of 10 = 210 (±5 tolerance
		// for boundary rounding).
		if admitted < 200 || admitted > 215 {
			t.Fatalf("admitted %d over 2s at rate 100 burst 10, want ~210", admitted)
		}
	})
}

// TestGCRAMetersHighRates: at byte rates the per-unit emission interval
// is a fraction of a nanosecond off a whole number, so GCRA must meter
// from the float rate. Reserving 4096-unit chunks for one virtual
// second (each reservation served its full wait), GCRA must admit
// within 1% of what the token bucket admits.
func TestGCRAMetersHighRates(t *testing.T) {
	admitted := func(l Limiter) float64 {
		const chunk = 4096
		end := t0.Add(time.Second)
		total := 0.0
		for now := t0; now.Before(end); {
			w, ok := l.Reserve(now, chunk, -1)
			if !ok {
				t.Fatalf("%s refused a %d-unit chunk with unbounded wait", l.Name(), chunk)
			}
			total += chunk
			now = now.Add(w)
		}
		return total
	}
	for _, rate := range []float64{64 << 20, 300e6} {
		cfg := Config{Rate: rate, Burst: 1 << 20}
		g, err := NewGCRA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := NewTokenBucket(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := admitted(g) / admitted(tb); ratio < 0.99 || ratio > 1.01 {
			t.Errorf("rate %.0f/s: GCRA admitted %.4fx the token bucket, want within 1%%", rate, ratio)
		}
	}
}

func TestCancelReturnsCharge(t *testing.T) {
	strategies(t, allStrategies, Config{Rate: 10, Burst: 4}, func(t *testing.T, l Limiter) {
		if _, ok := l.Reserve(t0, 4, 0); !ok {
			t.Fatal("burst refused")
		}
		if _, ok := l.Reserve(t0, 1, 0); ok {
			t.Fatal("empty limiter admitted")
		}
		l.(Canceler).Cancel(t0, 4)
		if w, ok := l.Reserve(t0, 4, 0); !ok || w != 0 {
			t.Fatalf("post-cancel burst: wait=%v ok=%v, want immediate", w, ok)
		}
	})
}

func TestTokenBucketNeverExceedsBurstOnCancel(t *testing.T) {
	tb, err := NewTokenBucket(Config{Rate: 10, Burst: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb.Cancel(t0, 1000)
	if got := tb.Tokens(t0); got > 4 {
		t.Fatalf("cancel overfilled bucket: %v tokens, burst 4", got)
	}
}

func TestMultiTierAllMustAdmit(t *testing.T) {
	tight, err := New("token_bucket", Config{Rate: 5, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := New("gcra", Config{Rate: 100, Burst: 50})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(tight, loose)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mt.Name(), "multi(token_bucket+gcra)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	// The tight tier dominates: 2 immediate units, then refusal at
	// maxWait=0 even though the loose tier has plenty.
	for i := 0; i < 2; i++ {
		if w, ok := mt.Reserve(t0, 1, 0); !ok || w != 0 {
			t.Fatalf("unit %d: wait=%v ok=%v", i, w, ok)
		}
	}
	if _, ok := mt.Reserve(t0, 1, 0); ok {
		t.Fatal("multi-tier admitted past the tight tier")
	}
}

func TestMultiTierRefusalCancelsEarlierTiers(t *testing.T) {
	first, err := NewTokenBucket(Config{Rate: 10, Burst: 10})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewTokenBucket(Config{Rate: 10, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(first, second)
	if err != nil {
		t.Fatal(err)
	}
	// 5 units: the first tier would admit, the second refuses; the
	// first tier's balance must be restored.
	if _, ok := mt.Reserve(t0, 5, 0); ok {
		t.Fatal("expected second-tier refusal")
	}
	if got := first.Tokens(t0); got != 10 {
		t.Fatalf("refused reserve leaked charge on first tier: %v tokens, want 10", got)
	}
	if _, err := NewMultiTier(); err == nil {
		t.Fatal("empty multi-tier must error")
	}
}

func TestMultiTierWaitIsMax(t *testing.T) {
	slow, err := NewTokenBucket(Config{Rate: 1, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewTokenBucket(Config{Rate: 1000, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(slow, fast)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mt.Reserve(t0, 1, -1); !ok {
		t.Fatal("first unit refused")
	}
	w, ok := mt.Reserve(t0, 1, -1)
	if !ok {
		t.Fatal("second unit refused at unbounded wait")
	}
	// The slow tier needs ~1s; the fast one ~1ms. Max must win.
	if w < 900*time.Millisecond {
		t.Fatalf("multi-tier wait = %v, want ~1s (max across tiers)", w)
	}
}

func TestLeakyBucketDrainsAndClamps(t *testing.T) {
	lb, err := NewLeakyBucket(Config{Rate: 10, Burst: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lb.Reserve(t0, 4, 0); !ok {
		t.Fatal("burst refused")
	}
	if got := lb.Level(t0); got != 4 {
		t.Fatalf("level = %v after 4 units, want 4", got)
	}
	// Half the bucket drains in 200ms at rate 10.
	if got := lb.Level(at(200 * time.Millisecond)); math.Abs(got-2) > 1e-9 {
		t.Fatalf("level = %v after 200ms, want 2", got)
	}
	// Over-cancel clamps to empty rather than banking credit.
	lb.Cancel(at(200*time.Millisecond), 1000)
	if got := lb.Level(at(200 * time.Millisecond)); got != 0 {
		t.Fatalf("level = %v after over-cancel, want 0", got)
	}
	// An over-capacity reserve queues: wait is exactly the overflow
	// divided by the drain rate.
	if _, ok := lb.Reserve(at(200*time.Millisecond), 4, 0); !ok {
		t.Fatal("refill refused")
	}
	w, ok := lb.Reserve(at(200*time.Millisecond), 2, -1)
	if !ok {
		t.Fatal("queued reserve refused at unbounded wait")
	}
	if w != 200*time.Millisecond {
		t.Fatalf("queued wait = %v, want 200ms (2 units at rate 10)", w)
	}
}

func TestSlidingWindowPacing(t *testing.T) {
	// Rate 10, burst 5 → at most 5 units in any trailing 500ms window.
	sw, err := NewSlidingWindow(Config{Rate: 10, Burst: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if w, ok := sw.Reserve(t0, 1, -1); !ok || w != 0 {
			t.Fatalf("burst unit %d: wait=%v ok=%v, want immediate", i, w, ok)
		}
	}
	// The 6th unit must wait for the full window, not one emission
	// interval: nothing ages out before t0+500ms.
	w, ok := sw.Reserve(t0, 1, -1)
	if !ok || w != 500*time.Millisecond {
		t.Fatalf("6th unit: wait=%v ok=%v, want exactly 500ms", w, ok)
	}
	// Queued admissions log at their scheduled time: a 7th unit shares
	// the same admit instant (two t0 entries age out together).
	if w, ok := sw.Reserve(t0, 1, -1); !ok || w != 500*time.Millisecond {
		t.Fatalf("7th unit: wait=%v ok=%v, want 500ms", w, ok)
	}
	// Queued units are charged the moment they reserve.
	if got := sw.InWindow(t0); got != 7 {
		t.Fatalf("charged at t0 = %v, want 7 (5 admitted + 2 queued)", got)
	}
	// By the queued units' admit instant the t0 burst has aged out and
	// only they remain charged.
	if got := sw.InWindow(at(500 * time.Millisecond)); got != 2 {
		t.Fatalf("charged at +500ms = %v, want 2", got)
	}
}

func TestSlidingWindowCliffRecovery(t *testing.T) {
	sw, err := NewSlidingWindow(Config{Rate: 10, Burst: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Reserve(t0, 5, 0); !ok {
		t.Fatal("burst refused")
	}
	// One instant before the window edge the burst still counts...
	if _, ok := sw.Reserve(at(500*time.Millisecond-time.Nanosecond), 1, 0); ok {
		t.Fatal("admitted inside a full window")
	}
	// ...and at the edge the whole burst ages out at once.
	if w, ok := sw.Reserve(at(500*time.Millisecond), 5, 0); !ok || w != 0 {
		t.Fatalf("post-window burst: wait=%v ok=%v, want immediate", w, ok)
	}
}

func TestSlidingWindowCancelPartial(t *testing.T) {
	sw, err := NewSlidingWindow(Config{Rate: 10, Burst: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Reserve(t0, 3, 0); !ok {
		t.Fatal("reserve refused")
	}
	sw.Cancel(t0, 2)
	if got := sw.InWindow(t0); got != 1 {
		t.Fatalf("in-window after partial cancel = %v, want 1", got)
	}
	if w, ok := sw.Reserve(t0, 4, 0); !ok || w != 0 {
		t.Fatalf("reserve after cancel: wait=%v ok=%v, want immediate", w, ok)
	}
	// Over-cancel empties the log and stays at zero.
	sw.Cancel(t0, 1000)
	if got := sw.InWindow(t0); got != 0 {
		t.Fatalf("in-window after over-cancel = %v, want 0", got)
	}
}

func TestMultiTierMixedNewStrategies(t *testing.T) {
	// A tight sliding window under a loose leaky bucket: a refusal by
	// the window tier must return the bucket tier's charge.
	loose, err := NewLeakyBucket(Config{Rate: 100, Burst: 50})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewSlidingWindow(Config{Rate: 5, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := NewMultiTier(loose, tight)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mt.Name(), "multi(leaky_bucket+sliding_window)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if _, ok := mt.Reserve(t0, 2, 0); !ok {
		t.Fatal("within both tiers refused")
	}
	if _, ok := mt.Reserve(t0, 1, 0); ok {
		t.Fatal("admitted past the full window tier")
	}
	if got := loose.Level(t0); got != 2 {
		t.Fatalf("refusal leaked charge on the bucket tier: level %v, want 2", got)
	}
}

func TestReserveConcurrentTotal(t *testing.T) {
	// Under concurrency the admitted total must respect rate*time+burst.
	strategies(t, allStrategies, Config{Rate: 1000, Burst: 100}, func(t *testing.T, l Limiter) {
		const goroutines = 8
		done := make(chan int, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				n := 0
				now := t0
				for i := 0; i < 500; i++ {
					if w, ok := l.Reserve(now, 1, 0); ok && w == 0 {
						n++
					}
					now = now.Add(250 * time.Microsecond)
				}
				done <- n
			}()
		}
		total := 0
		for g := 0; g < goroutines; g++ {
			total += <-done
		}
		// 125ms of simulated time per goroutine, wall-clock interleaved;
		// the loosest upper bound is burst + rate * max-simulated-span.
		if total > 100+1000/4+50 {
			t.Fatalf("admitted %d, exceeds quota envelope", total)
		}
		if total < 100 {
			t.Fatalf("admitted %d, less than burst 100", total)
		}
	})
}
