// Package limit implements the admission-control strategies the job
// manager applies at its two choke points: source ingest (events/sec per
// tenant) and store write bandwidth (bytes/sec per tenant). Strategies
// register themselves in a small registry — token bucket, GCRA, leaky
// bucket and sliding window ship by default — so tenant quotas name a
// strategy the way backends name a Kind, and limiters compose into
// multi-tier quotas (e.g. a burst-tight per-second tier under a
// sustained per-minute tier) where admission requires every tier to
// agree.
//
// All limiters share one contract: Reserve(now, n, maxWait) either
// charges n units and returns the delay the caller must serve before
// proceeding (backpressure), or refuses without charging anything
// (shed). Time is passed in explicitly, which keeps tests deterministic
// and lets a caller amortize clock reads across choke points.
package limit

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Limiter is one admission-control strategy instance. Implementations
// are safe for concurrent use.
type Limiter interface {
	// Name identifies the strategy (registry key) in stats and reports.
	Name() string
	// Reserve requests admission of n units at time now. When ok, the n
	// units are charged and the caller must wait `wait` (possibly zero)
	// before proceeding — the backpressure path. When !ok, nothing was
	// charged: admitting n units would require delaying beyond maxWait
	// (or n exceeds what the limiter can ever admit at once) — the shed
	// path. maxWait < 0 means the caller will wait however long it
	// takes; only an n larger than the burst capacity is ever refused.
	Reserve(now time.Time, n float64, maxWait time.Duration) (wait time.Duration, ok bool)
}

// Canceler is implemented by limiters that can return a charge — used
// by MultiTier to un-charge admitted tiers when a later tier refuses,
// so a shed request consumes no quota anywhere.
type Canceler interface {
	Cancel(now time.Time, n float64)
}

// Config parameterizes one limiter instance.
type Config struct {
	// Rate is the sustained admission rate in units per second.
	Rate float64
	// Burst is the instantaneous capacity in units: how far admission
	// may run ahead of the sustained rate. Defaults to max(Rate, 1).
	Burst float64
}

func (c Config) fill() (Config, error) {
	if c.Rate <= 0 || math.IsInf(c.Rate, 0) || math.IsNaN(c.Rate) {
		return c, fmt.Errorf("limit: rate must be positive and finite, got %v", c.Rate)
	}
	if c.Burst < 0 || math.IsInf(c.Burst, 0) || math.IsNaN(c.Burst) {
		return c, fmt.Errorf("limit: burst must be non-negative and finite, got %v", c.Burst)
	}
	if c.Burst == 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c, nil
}

// Factory constructs a limiter from a config (registry entry).
type Factory func(Config) (Limiter, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a strategy to the registry. It panics on a duplicate
// name — strategies register from init, and a silent overwrite would
// make quota behavior depend on package-init order.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("limit: strategy %q registered twice", name))
	}
	registry[name] = f
}

// New constructs a limiter by strategy name. Unknown names report the
// registered alternatives.
func New(name string, cfg Config) (Limiter, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("limit: unknown strategy %q (have %v)", name, Strategies())
	}
	return f(cfg)
}

// Strategies lists the registered strategy names, sorted.
func Strategies() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("token_bucket", func(c Config) (Limiter, error) { return NewTokenBucket(c) })
	Register("gcra", func(c Config) (Limiter, error) { return NewGCRA(c) })
	Register("leaky_bucket", func(c Config) (Limiter, error) { return NewLeakyBucket(c) })
	Register("sliding_window", func(c Config) (Limiter, error) { return NewSlidingWindow(c) })
}

// TokenBucket is the classic leaky-bucket-as-meter: tokens refill at
// Rate per second up to Burst, each admitted unit spends one token, and
// a reservation may drive the balance negative — the debt divided by
// the rate is exactly the wait the caller is told to serve, so a
// saturated bucket turns into smooth backpressure rather than a hard
// edge.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a full bucket.
func NewTokenBucket(cfg Config) (*TokenBucket, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return &TokenBucket{rate: c.Rate, burst: c.Burst, tokens: c.Burst}, nil
}

// Name implements Limiter.
func (tb *TokenBucket) Name() string { return "token_bucket" }

func (tb *TokenBucket) refillLocked(now time.Time) {
	if tb.last.IsZero() {
		tb.last = now
		return
	}
	if dt := now.Sub(tb.last); dt > 0 {
		tb.tokens += dt.Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
}

// Reserve implements Limiter.
func (tb *TokenBucket) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	if n > tb.burst {
		// Larger than the bucket: no amount of waiting admits it whole.
		return 0, false
	}
	after := tb.tokens - n
	if after >= 0 {
		tb.tokens = after
		return 0, true
	}
	wait := time.Duration(-after / tb.rate * float64(time.Second))
	if maxWait >= 0 && wait > maxWait {
		return 0, false
	}
	tb.tokens = after
	return wait, true
}

// Cancel implements Canceler: returns n unspent tokens.
func (tb *TokenBucket) Cancel(now time.Time, n float64) {
	if n <= 0 {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	tb.tokens += n
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// Tokens reports the current balance at time now (tests, stats).
func (tb *TokenBucket) Tokens(now time.Time) float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked(now)
	return tb.tokens
}

// GCRA is the generic cell rate algorithm (virtual scheduling form):
// instead of a token balance it tracks one timestamp, the theoretical
// arrival time (TAT) of the next conforming unit. A request of n units
// conforms if now >= TAT - τ, where τ = Burst/Rate is the tolerance;
// admission advances TAT by n·T with T = 1/Rate. The wait returned for
// an early-but-tolerable request is TAT - τ - now. GCRA meters exactly
// like a token bucket at steady state but needs O(1) state with no
// refill arithmetic, and its TAT subtraction makes Cancel exact.
//
// n·T is computed from the float rate per request, never from a
// whole-nanosecond T: at byte rates T is a fraction of a nanosecond
// off a whole number (14.9 ns at 64 MiB/s), and truncating it once
// would over-admit by that fraction on every unit.
type GCRA struct {
	mu   sync.Mutex
	rate float64       // units per second
	tau  time.Duration // tolerance: burst / rate
	tat  time.Time     // theoretical arrival time of the next unit
}

// NewGCRA builds a GCRA limiter.
func NewGCRA(cfg Config) (*GCRA, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	g := &GCRA{rate: c.Rate}
	g.tau = g.interval(c.Burst)
	return g, nil
}

// interval is the emission time of n units, n / rate, rounded up to
// the nanosecond so rounding never admits more than the rate (and a
// request is never free). Reserve and Cancel share it, so a cancel rolls
// TAT back by exactly what the reservation advanced it.
func (g *GCRA) interval(n float64) time.Duration {
	return time.Duration(math.Ceil(n / g.rate * float64(time.Second)))
}

// Name implements Limiter.
func (g *GCRA) Name() string { return "gcra" }

// Reserve implements Limiter.
func (g *GCRA) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	inc := g.interval(n)
	if inc > g.tau {
		// n exceeds the burst tolerance: never admissible at once.
		return 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	tat := g.tat
	if tat.Before(now) {
		tat = now
	}
	newTAT := tat.Add(inc)
	wait := newTAT.Sub(now) - g.tau
	if wait < 0 {
		wait = 0
	}
	if maxWait >= 0 && wait > maxWait {
		return 0, false
	}
	g.tat = newTAT
	return wait, true
}

// Cancel implements Canceler: rolls TAT back by n emission intervals.
func (g *GCRA) Cancel(now time.Time, n float64) {
	if n <= 0 {
		return
	}
	inc := g.interval(n)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tat = g.tat.Add(-inc)
}

// LeakyBucket meters admission as water in a bucket that drains at Rate
// units per second with capacity Burst: each admitted unit pours one
// unit in, a request that would overflow is held back exactly as long
// as the overflow takes to drain. It is the token bucket's dual (water
// level = Burst - tokens) and paces identically at every point, but the
// state it carries — outstanding work, not remaining allowance — is the
// shape operators reason about when the choke point guards a queue.
type LeakyBucket struct {
	mu    sync.Mutex
	rate  float64 // drain rate, units per second
	cap   float64 // bucket capacity (burst)
	level float64 // current water
	last  time.Time
}

// NewLeakyBucket builds an empty bucket.
func NewLeakyBucket(cfg Config) (*LeakyBucket, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return &LeakyBucket{rate: c.Rate, cap: c.Burst}, nil
}

// Name implements Limiter.
func (lb *LeakyBucket) Name() string { return "leaky_bucket" }

func (lb *LeakyBucket) drainLocked(now time.Time) {
	if lb.last.IsZero() {
		lb.last = now
		return
	}
	if dt := now.Sub(lb.last); dt > 0 {
		lb.level -= dt.Seconds() * lb.rate
		if lb.level < 0 {
			lb.level = 0
		}
		lb.last = now
	}
}

// Reserve implements Limiter.
func (lb *LeakyBucket) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.drainLocked(now)
	if n > lb.cap {
		// Larger than the bucket: no amount of draining admits it whole.
		return 0, false
	}
	after := lb.level + n
	if after <= lb.cap {
		lb.level = after
		return 0, true
	}
	wait := time.Duration((after - lb.cap) / lb.rate * float64(time.Second))
	if maxWait >= 0 && wait > maxWait {
		return 0, false
	}
	lb.level = after
	return wait, true
}

// Cancel implements Canceler: scoops n units back out.
func (lb *LeakyBucket) Cancel(now time.Time, n float64) {
	if n <= 0 {
		return
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.drainLocked(now)
	lb.level -= n
	if lb.level < 0 {
		lb.level = 0
	}
}

// Level reports the current water level at time now (tests, stats).
func (lb *LeakyBucket) Level(now time.Time) float64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.drainLocked(now)
	return lb.level
}

// SlidingWindow admits at most Burst units inside any trailing window
// of Burst/Rate seconds, tracked as an exact admission log (no
// fixed-boundary approximation). Unlike the meters above it does not
// smooth: a full burst admits at once and the window must actually
// slide past old admissions before new ones fit, so recovery after a
// burst is a cliff at window age rather than a gradual refill. Delayed
// admissions are logged at their scheduled time, which keeps the
// invariant exact across queued waits; Cancel pops the newest charges
// off the log.
type SlidingWindow struct {
	mu   sync.Mutex
	win  time.Duration
	cap  float64
	used float64   // sum of log entries
	log  []swEntry // admissions, ascending by ts
}

type swEntry struct {
	ts time.Time
	n  float64
}

// NewSlidingWindow builds an empty window.
func NewSlidingWindow(cfg Config) (*SlidingWindow, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	win := time.Duration(c.Burst / c.Rate * float64(time.Second))
	if win <= 0 {
		win = 1
	}
	return &SlidingWindow{win: win, cap: c.Burst}, nil
}

// Name implements Limiter.
func (sw *SlidingWindow) Name() string { return "sliding_window" }

// evictLocked drops admissions that have aged out of the window ending
// at now.
func (sw *SlidingWindow) evictLocked(now time.Time) {
	i := 0
	for i < len(sw.log) && !sw.log[i].ts.Add(sw.win).After(now) {
		sw.used -= sw.log[i].n
		i++
	}
	if i > 0 {
		sw.log = append(sw.log[:0], sw.log[i:]...)
		if sw.used < 0 {
			sw.used = 0
		}
	}
}

// Reserve implements Limiter.
func (sw *SlidingWindow) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	if n <= 0 {
		return 0, true
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if n > sw.cap {
		// Larger than the window capacity: never admissible at once.
		return 0, false
	}
	sw.evictLocked(now)
	if sw.used+n <= sw.cap {
		sw.log = append(sw.log, swEntry{ts: now, n: n})
		sw.used += n
		return 0, true
	}
	// Walk the log oldest-first until enough admissions will have aged
	// out; the last one's exit time is the earliest admissible instant.
	need := sw.used + n - sw.cap
	var freed float64
	admitAt := now
	for _, e := range sw.log {
		freed += e.n
		if freed >= need {
			admitAt = e.ts.Add(sw.win)
			break
		}
	}
	wait := admitAt.Sub(now)
	if wait < 0 {
		wait = 0
	}
	if maxWait >= 0 && wait > maxWait {
		return 0, false
	}
	// Log at the scheduled time: successive queued waits walk ever
	// deeper into the log, so appends stay sorted.
	sw.log = append(sw.log, swEntry{ts: admitAt, n: n})
	sw.used += n
	return wait, true
}

// Cancel implements Canceler: removes the newest n units from the log.
func (sw *SlidingWindow) Cancel(now time.Time, n float64) {
	if n <= 0 {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for n > 0 && len(sw.log) > 0 {
		last := &sw.log[len(sw.log)-1]
		if last.n > n {
			last.n -= n
			sw.used -= n
			return
		}
		n -= last.n
		sw.used -= last.n
		sw.log = sw.log[:len(sw.log)-1]
	}
	if sw.used < 0 {
		sw.used = 0
	}
}

// InWindow reports the units currently charged inside the trailing
// window at time now (tests, stats).
func (sw *SlidingWindow) InWindow(now time.Time) float64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.evictLocked(now)
	return sw.used
}

// MultiTier composes limiters into one quota where every tier must
// admit: the returned wait is the maximum across tiers (each tier's
// constraint is satisfied by waiting the longest one), and a refusal by
// any tier cancels the charges already made on earlier tiers, so a shed
// request consumes no quota. A typical two-tier quota pairs a tight
// per-second limiter (smoothing) with a larger per-minute one (sustained
// cap).
type MultiTier struct {
	tiers []Limiter
}

// NewMultiTier composes tiers; at least one is required.
func NewMultiTier(tiers ...Limiter) (*MultiTier, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("limit: multi-tier quota needs at least one tier")
	}
	return &MultiTier{tiers: append([]Limiter(nil), tiers...)}, nil
}

// Name implements Limiter.
func (m *MultiTier) Name() string {
	name := "multi("
	for i, l := range m.tiers {
		if i > 0 {
			name += "+"
		}
		name += l.Name()
	}
	return name + ")"
}

// Reserve implements Limiter.
func (m *MultiTier) Reserve(now time.Time, n float64, maxWait time.Duration) (time.Duration, bool) {
	var wait time.Duration
	for i, l := range m.tiers {
		w, ok := l.Reserve(now, n, maxWait)
		if !ok {
			for _, prev := range m.tiers[:i] {
				if c, can := prev.(Canceler); can {
					c.Cancel(now, n)
				}
			}
			return 0, false
		}
		if w > wait {
			wait = w
		}
	}
	return wait, true
}

// Cancel implements Canceler across every tier.
func (m *MultiTier) Cancel(now time.Time, n float64) {
	for _, l := range m.tiers {
		if c, ok := l.(Canceler); ok {
			c.Cancel(now, n)
		}
	}
}

var (
	_ Limiter  = (*TokenBucket)(nil)
	_ Limiter  = (*GCRA)(nil)
	_ Limiter  = (*LeakyBucket)(nil)
	_ Limiter  = (*SlidingWindow)(nil)
	_ Limiter  = (*MultiTier)(nil)
	_ Canceler = (*TokenBucket)(nil)
	_ Canceler = (*GCRA)(nil)
	_ Canceler = (*LeakyBucket)(nil)
	_ Canceler = (*SlidingWindow)(nil)
	_ Canceler = (*MultiTier)(nil)
)
