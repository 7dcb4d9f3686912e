package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/metrics"
	"flowkv/internal/statebackend"
	"flowkv/internal/window"
)

// Store operations the window operators call, by the statebackend
// method that carries them.
const (
	opAppend = iota
	opReadAppended
	opReadWindow
	opGetAgg
	opPutAgg
	opTakeAgg
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"append", "read_appended", "read_window", "get_agg", "put_agg", "take_agg"}

// patternOps lists, per FlowKV pattern store, the operations the
// benchmark's queries call on it; only these are reported.
var patternOps = map[string][]int{
	"rmw": {opGetAgg, opPutAgg, opTakeAgg},
	"aar": {opAppend, opReadWindow},
	"aur": {opAppend, opReadAppended},
}

func patternName(p core.Pattern) string {
	switch p {
	case core.PatternRMW:
		return "rmw"
	case core.PatternAAR:
		return "aar"
	default:
		return "aur"
	}
}

// opStat accumulates the calls into one store operation.
type opStat struct {
	calls atomic.Int64
	nanos atomic.Int64
	hist  *metrics.Histogram
}

func (s *opStat) observe(d time.Duration) {
	s.calls.Add(1)
	s.nanos.Add(int64(d))
	s.hist.Observe(d)
}

// span is one traced interval. Times are nanoseconds since the run's
// origin; Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects one traced iteration's layer measurements: per-op
// store call counts and latency histograms, checkpoint snapshot times,
// spans, and the final FlowKV statistics of every backend.
type recorder struct {
	origin time.Time
	run    string

	ops map[string]*[numStoreOps]opStat

	mu        sync.Mutex
	spans     []span
	nextID    int64
	runSpan   int64
	barrier   int64 // open barrier span, 0 when none
	snapshots []time.Duration
	snapInBar time.Duration // snapshot time inside the open barrier
	coord     []time.Duration
	probes    []*probe
	final     []core.Stats
	peak      coreGauges
}

// coreGauges are the FlowKV occupancy gauges, sampled while a run is live.
type coreGauges struct {
	liveStates, diskBytes, bufferedBytes int64
}

func newRecorder(run string) *recorder {
	r := &recorder{origin: time.Now(), run: run, ops: map[string]*[numStoreOps]opStat{}}
	for p := range patternOps {
		var arr [numStoreOps]opStat
		for i := range arr {
			arr[i].hist = metrics.NewHistogram()
		}
		r.ops[p] = &arr
	}
	r.runSpan = r.newID()
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *recorder) addSpan(name string, id, parent, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Run: r.run, Start: start, End: end})
	r.mu.Unlock()
}

// openBarrier marks the source pausing at a barrier; closeBarrier ends
// the pause and records the coordinator's share of it.
func (r *recorder) openBarrier() {
	id := r.newID()
	r.mu.Lock()
	r.barrier = id
	r.snapInBar = 0
	r.mu.Unlock()
}

func (r *recorder) closeBarrier(start, end int64) {
	r.mu.Lock()
	id, snaps := r.barrier, r.snapInBar
	r.barrier = 0
	r.mu.Unlock()
	if id == 0 {
		return
	}
	r.addSpan("barrier", id, r.runSpan, start, end)
	r.mu.Lock()
	r.coord = append(r.coord, time.Duration(end-start)-snaps)
	r.mu.Unlock()
}

func (r *recorder) snapshot(start, end int64) {
	id := r.newID()
	r.mu.Lock()
	parent := r.barrier
	if parent == 0 {
		parent = r.runSpan // the final commit happens outside any barrier
	} else {
		r.snapInBar += time.Duration(end - start)
	}
	r.snapshots = append(r.snapshots, time.Duration(end-start))
	r.mu.Unlock()
	r.addSpan("snapshot", id, parent, start, end)
}

// sampleGauges records the current FlowKV occupancy of every open
// backend, keeping the peak.
func (r *recorder) sampleGauges() {
	r.mu.Lock()
	probes := append([]*probe(nil), r.probes...)
	r.mu.Unlock()
	var g coreGauges
	for _, p := range probes {
		if st, ok := p.liveStats(); ok {
			g.liveStates += int64(st.LiveStates)
			g.diskBytes += st.DiskBytes
			g.bufferedBytes += st.BufferedBytes
		}
	}
	r.mu.Lock()
	r.peak.liveStates = max(r.peak.liveStates, g.liveStates)
	r.peak.diskBytes = max(r.peak.diskBytes, g.diskBytes)
	r.peak.bufferedBytes = max(r.peak.bufferedBytes, g.bufferedBytes)
	r.mu.Unlock()
}

// wrap returns a timing wrapper around b. Backends that can checkpoint
// get a wrapper that checkpoints by delegation, so spe.Job still takes
// the delta path through it.
func (r *recorder) wrap(b statebackend.Backend) statebackend.Backend {
	pattern := "aur"
	if st, ok := statebackend.FlowKVStats(b); ok {
		pattern = patternName(st.Pattern)
	}
	p := &probe{inner: b, rec: r, ops: r.ops[pattern]}
	r.mu.Lock()
	r.probes = append(r.probes, p)
	r.mu.Unlock()
	if dc, ok := statebackend.AsDeltaCheckpointer(b); ok {
		return &checkpointProbe{probe: p, cp: dc}
	}
	return p
}

// probe is a statebackend.Backend that times every call into the
// backend it wraps and otherwise forwards it unchanged.
type probe struct {
	inner statebackend.Backend
	rec   *recorder
	ops   *[numStoreOps]opStat

	mu     sync.RWMutex // excludes gauge sampling from Close/Destroy
	closed bool
}

var _ statebackend.Unwrapper = (*probe)(nil)

func (p *probe) timed(op int, start time.Time) { p.ops[op].observe(time.Since(start)) }

func (p *probe) Name() string                 { return p.inner.Name() }
func (p *probe) Unwrap() statebackend.Backend { return p.inner }

func (p *probe) Append(key, value []byte, w window.Window, ts int64) error {
	defer p.timed(opAppend, time.Now())
	return p.inner.Append(key, value, w, ts)
}

func (p *probe) ReadAppended(key []byte, w window.Window) ([][]byte, error) {
	defer p.timed(opReadAppended, time.Now())
	return p.inner.ReadAppended(key, w)
}

func (p *probe) PeekAppended(key []byte, w window.Window) ([][]byte, error) {
	return p.inner.PeekAppended(key, w)
}

// ReadWindow is a whole-window drain; each call is also a span.
func (p *probe) ReadWindow(w window.Window, emit func(key []byte, values [][]byte) error) (bool, error) {
	start := time.Now()
	ok, err := p.inner.ReadWindow(w, emit)
	end := time.Now()
	p.ops[opReadWindow].observe(end.Sub(start))
	r := p.rec
	r.addSpan("read_window", r.newID(), r.runSpan, int64(start.Sub(r.origin)), int64(end.Sub(r.origin)))
	return ok, err
}

func (p *probe) DropAppended(key []byte, w window.Window) error {
	return p.inner.DropAppended(key, w)
}

func (p *probe) GetAgg(key []byte, w window.Window) ([]byte, bool, error) {
	defer p.timed(opGetAgg, time.Now())
	return p.inner.GetAgg(key, w)
}

func (p *probe) PutAgg(key []byte, w window.Window, agg []byte) error {
	defer p.timed(opPutAgg, time.Now())
	return p.inner.PutAgg(key, w, agg)
}

func (p *probe) TakeAgg(key []byte, w window.Window) ([]byte, bool, error) {
	defer p.timed(opTakeAgg, time.Now())
	return p.inner.TakeAgg(key, w)
}

func (p *probe) Flush() error { return p.inner.Flush() }

func (p *probe) Close() error {
	p.retire()
	return p.inner.Close()
}

func (p *probe) Destroy() error {
	p.retire()
	return p.inner.Destroy()
}

// retire records the backend's final FlowKV statistics before it is
// released; later gauge samples skip it.
func (p *probe) retire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if st, ok := statebackend.FlowKVStats(p.inner); ok {
		p.rec.mu.Lock()
		p.rec.final = append(p.rec.final, st)
		p.rec.mu.Unlock()
	}
}

func (p *probe) liveStats() (core.Stats, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return core.Stats{}, false
	}
	return statebackend.FlowKVStats(p.inner)
}

// checkpointProbe adds the checkpoint capability by delegation and
// times each snapshot.
type checkpointProbe struct {
	*probe
	cp statebackend.DeltaCheckpointer
}

var _ statebackend.DeltaCheckpointer = (*checkpointProbe)(nil)

func (c *checkpointProbe) CheckpointMeta(dir string, meta []byte) error {
	start := c.rec.now()
	err := c.cp.CheckpointMeta(dir, meta)
	c.rec.snapshot(start, c.rec.now())
	return err
}

func (c *checkpointProbe) CheckpointDeltaMeta(dir, parent string, meta []byte) error {
	start := c.rec.now()
	err := c.cp.CheckpointDeltaMeta(dir, parent, meta)
	c.rec.snapshot(start, c.rec.now())
	return err
}

func (c *checkpointProbe) RestoreMeta(dir string) ([]byte, error) { return c.cp.RestoreMeta(dir) }

// storeKey names a per-op store metric.
func storeKey(pattern string, op int, field string) string {
	return fmt.Sprintf("store.%s.%s.%s", pattern, storeOpNames[op], field)
}
