package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"flowkv/internal/binio"
	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/harness"
	"flowkv/internal/metrics"
	"flowkv/internal/nexmark"
	"flowkv/internal/nexmark/queries"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
)

// Settings shared by every workload (see README.md).
const (
	windowMs    = 5_000 // window size / session gap: the middle scaled size
	parallelism = 2     // workers per keyed stage
)

// workload is one input set and driving mode.
type workload struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	// Events is the generator events per iteration; the query adapter
	// turns its bids into the source tuples the program sees.
	Events int `json:"events"`
	// RateTPS, when positive, feeds open-loop at this many tuples/s.
	RateTPS float64 `json:"rate_tps,omitempty"`
	// CheckpointEvery, when positive, runs a checkpointing spe.Job with
	// a barrier every this many source tuples.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// q11m-ckpt runs by hand but is left out of BENCHMARK.json: its CPU
// time and heap per event spread beyond their bounds on the 2-vCPU host
// the bounds were set on (see README.md).
var workloads = []workload{
	{Name: "q5a-closed", Query: "Q5-Append", Events: 250_000},
	{Name: "q11m-open", Query: "Q11-Median", Events: 120_000, RateTPS: 100_000},
	{Name: "q5a-ckpt", Query: "Q5-Append", Events: 150_000, CheckpointEvery: 10_000},
	{Name: "q11m-ckpt", Query: "Q11-Median", Events: 100_000, CheckpointEvery: 5_000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Resilience settings of the checkpointing jobs: each far above healthy
// latencies, as a production job would set them.
const (
	opDeadline       = 5 * time.Second
	progressDeadline = 60 * time.Second
	retainGens       = 2
)

// generate makes the workload's input from seed: generator events run
// through the query's adapter.
func generate(w workload, seed int64) ([]spe.Tuple, error) {
	q, err := queries.Build(w.Query, queries.Config{Backend: statebackend.KindInMem})
	if err != nil {
		return nil, err
	}
	events := nexmark.NewGenerator(nexmark.GeneratorConfig{Events: w.Events, InterEventMs: 1, Seed: seed}).All()
	tuples := make([]spe.Tuple, 0, len(events))
	for _, ev := range events {
		q.Adapt(ev, func(t spe.Tuple) { tuples = append(tuples, t) })
	}
	return tuples, nil
}

// result is one output tuple as the oracle compares it.
type result struct {
	TS         int64
	Key, Value string
}

func sortResults(rs []result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Value < b.Value
	})
}

// reference runs the query on the in-memory backend with no capacity
// limit, the reference the repository's cross-backend test trusts.
func reference(w workload, tuples []spe.Tuple, dir string) ([]result, error) {
	q, err := queries.Build(w.Query, queries.Config{Backend: statebackend.KindInMem, BaseDir: dir,
		Parallelism: parallelism, WindowMs: windowMs})
	if err != nil {
		return nil, err
	}
	var out []result
	res, err := spe.Run(q.Pipeline, func(emit func(spe.Tuple)) {
		for _, t := range tuples {
			emit(t)
		}
	}, func(t spe.Tuple) { out = append(out, result{t.TS, string(t.Key), string(t.Value)}) })
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if res.Halted != nil {
		return nil, fmt.Errorf("reference run halted: %v", res.Halted)
	}
	sortResults(out)
	return out, nil
}

// check compares a run's output multiset with the reference.
func check(got, want []result) error {
	sortResults(got)
	if len(got) != len(want) {
		return fmt.Errorf("output has %d results, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// feeder hands the pre-generated tuples to the program and stamps when
// each one was sent, relative to origin.
type feeder struct {
	tuples []spe.Tuple
	rate   float64
	traced bool
	origin time.Time
	sent   []int64
	// blocked is the time spent inside the program's feed call (traced
	// runs only): backpressure seen by the source.
	blocked time.Duration
	end     int64 // when the last tuple was sent
}

func newFeeder(tuples []spe.Tuple, rate float64, traced bool) *feeder {
	return &feeder{tuples: tuples, rate: rate, traced: traced, sent: make([]int64, len(tuples))}
}

func (f *feeder) since() int64 { return int64(time.Since(f.origin)) }

// due is when tuple i was due: its send time in a closed loop, its slot
// on the fixed schedule in an open loop.
func (f *feeder) due(i int) int64 {
	if f.rate > 0 {
		return int64(float64(i) * 1e9 / f.rate)
	}
	return f.sent[i]
}

// source is the spe.Source of a Run: closed loop at full speed, or open
// loop on a fixed schedule that a late generator does not skip.
func (f *feeder) source(emit func(spe.Tuple)) {
	f.origin = time.Now()
	for i, t := range f.tuples {
		if f.rate > 0 {
			if d := f.due(i) - f.since(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		now := f.since()
		f.sent[i] = now
		emit(t)
		if f.traced {
			f.blocked += time.Duration(f.since() - now)
		}
	}
	f.end = f.since()
}

// jobSource is the seekable source of a checkpointing job. The job
// pauses it at every barrier; the gap between the Next call that
// returned the barrier's last tuple and the one after it is the pause.
type jobSource struct {
	*feeder
	every   int
	pos     int
	paused  bool
	pauseAt int64
	pauses  []time.Duration
	last    int64
	rec     *recorder
	recAt   int64 // pauseAt on the recorder's clock
}

func (s *jobSource) Next() (spe.Tuple, bool) {
	now := s.since()
	if s.paused {
		s.paused = false
		s.pauses = append(s.pauses, time.Duration(now-s.pauseAt))
		if s.rec != nil {
			s.rec.closeBarrier(s.recAt, s.rec.now())
		}
	} else if s.traced && s.pos > 0 {
		s.blocked += time.Duration(now - s.last)
	}
	if s.pos >= len(s.tuples) {
		s.end = now
		return spe.Tuple{}, false
	}
	t := s.tuples[s.pos]
	s.sent[s.pos] = now
	s.pos++
	if s.pos%s.every == 0 {
		s.paused, s.pauseAt = true, s.since()
		if s.rec != nil {
			s.recAt = s.rec.now()
			s.rec.openBarrier()
		}
	}
	if s.traced {
		s.last = s.since()
	}
	return t, true
}

func (s *jobSource) Offset() int64 { return int64(s.pos) }

func (s *jobSource) SeekTo(off int64) error {
	if off < 0 || off > int64(len(s.tuples)) {
		return fmt.Errorf("seek %d out of range [0,%d]", off, len(s.tuples))
	}
	s.pos, s.paused = int(off), false
	return nil
}

// commitPoint is when a job commit landed and how long the committed
// ledger was after it.
type commitPoint struct{ at, ledgerLen int64 }

// ledgerArrivals returns, for every record of a job's committed ledger,
// its timestamp and when it became visible: the commit that covered it.
func ledgerArrivals(ledger []byte, commits []commitPoint) ([]arrival, error) {
	var out []arrival
	off, c := 0, 0
	for off < len(ledger) {
		payload, n, err := binio.ReadRecord(ledger[off:])
		if err != nil {
			return nil, fmt.Errorf("ledger record at %d: %w", off, err)
		}
		ts, _, err := binio.Varint(payload)
		if err != nil {
			return nil, fmt.Errorf("ledger record at %d: %w", off, err)
		}
		off += n
		for c < len(commits) && commits[c].ledgerLen < int64(off) {
			c++
		}
		if c == len(commits) {
			return nil, fmt.Errorf("ledger record at %d is past the last commit", off-n)
		}
		out = append(out, arrival{at: commits[c].at, ts: ts})
	}
	return out, nil
}

// arrival is when one result reached the user, and its timestamp.
type arrival struct{ at, ts int64 }

// iteration is one measured execution of a workload over its input.
type iteration struct {
	traced    bool
	tuples    int
	wall, cpu time.Duration
	user, sys time.Duration // the two parts of cpu
	rt        runtimeDelta
	peakHeap  uint64
	latencies []time.Duration
	lags      []time.Duration
	pauses    []time.Duration
	results   int64
	triggers  int64
	commits   int64
	bd        *metrics.Breakdown
	rec       *recorder
	feedBlock time.Duration
	err       error
}

// runIteration executes the workload once against the FlowKV backend in
// a fresh directory and checks its output against ref. With traced set,
// every backend is wrapped by a timing probe.
func runIteration(w workload, tuples []spe.Tuple, ref []result, dir string, traced bool) *iteration {
	it := &iteration{traced: traced, tuples: len(tuples), bd: &metrics.Breakdown{}}
	defer os.RemoveAll(dir)
	opts := harness.ScaledStoreOptions().FlowKV
	if w.CheckpointEvery > 0 {
		opts.OpDeadline = opDeadline
	}
	q, err := queries.Build(w.Query, queries.Config{Backend: statebackend.KindFlowKV,
		BaseDir: filepath.Join(dir, "state"), Parallelism: parallelism, WindowMs: windowMs,
		FlowKV: opts, Breakdown: it.bd})
	if err != nil {
		it.err = err
		return it
	}
	if traced {
		it.rec = newRecorder(filepath.Base(dir))
		for i := range q.Pipeline.Stages {
			st := &q.Pipeline.Stages[i]
			if open := st.NewBackend; open != nil {
				st.NewBackend = func(worker int) (statebackend.Backend, error) {
					b, err := open(worker)
					if err != nil {
						return nil, err
					}
					return it.rec.wrap(b), nil
				}
			}
		}
	}
	f := newFeeder(tuples, w.RateTPS, traced)

	var out []result
	var arrivals []arrival
	sink := func(t spe.Tuple) {
		arrivals = append(arrivals, arrival{f.since(), t.TS})
		out = append(out, result{t.TS, string(t.Key), string(t.Value)})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	runtime.GC() // settle earlier garbage outside the timed region
	base := liveHeap()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			peak = max(peak, liveHeap())
			if it.rec != nil && n%10 == 0 {
				it.rec.sampleGauges()
			}
		}
	}()

	rt0 := readRuntime()
	user0, sys0 := processCPU()
	t0 := time.Now()
	stopClock := func() {
		user, sys := processCPU()
		it.wall, it.user, it.sys = time.Since(t0), user-user0, sys-sys0
		it.cpu = it.user + it.sys
	}
	var res *spe.RunResult
	var runErr error
	if w.CheckpointEvery > 0 {
		jobDir := filepath.Join(dir, "job")
		src := &jobSource{feeder: f, every: w.CheckpointEvery, rec: it.rec}
		f.origin = t0
		var commits []commitPoint
		job := &spe.Job{
			Pipeline:          q.Pipeline,
			Source:            src,
			Dir:               jobDir,
			CheckpointEvery:   w.CheckpointEvery,
			RetainGenerations: retainGens,
			SelfHeal:          &core.SelfHealOptions{},
			ProgressDeadline:  progressDeadline,
			OnCheckpoint: func(int64, bool) {
				at := f.since()
				m, err := spe.ReadJobMeta(faultfs.OS, jobDir)
				if err != nil && runErr == nil {
					runErr = err
				}
				commits = append(commits, commitPoint{at, m.LedgerLen})
			},
		}
		jr, err := job.Run()
		stopClock()
		if runErr == nil {
			runErr = err
		}
		if jr != nil {
			res = jr.RunResult
			if runErr == nil && !jr.Final {
				runErr = fmt.Errorf("job ended without its final commit")
			}
		}
		it.commits = int64(len(commits))
		it.pauses = src.pauses
		if runErr == nil {
			var recs []spe.SinkRecord
			recs, runErr = spe.ReadLedger(faultfs.OS, jobDir)
			for _, r := range recs {
				out = append(out, result{r.TS, string(r.Key), string(r.Value)})
			}
		}
		if runErr == nil {
			var ledger []byte
			if ledger, runErr = spe.ReadLedgerBytes(faultfs.OS, jobDir); runErr == nil {
				arrivals, runErr = ledgerArrivals(ledger, commits)
			}
		}
	} else {
		res, runErr = spe.Run(q.Pipeline, f.source, sink)
		stopClock()
		// Without barriers the only commit point is end of stream: the
		// drain from the last source tuple until the run has returned.
		it.pauses = []time.Duration{it.wall - f.origin.Sub(t0) - time.Duration(f.end)}
	}
	it.rt = rt0.delta(readRuntime())
	if r := it.rec; r != nil {
		r.addSpan("run", r.runSpan, 0, int64(t0.Sub(r.origin)), int64(t0.Add(it.wall).Sub(r.origin)))
	}
	close(stop)
	wg.Wait()
	if peak > base {
		it.peakHeap = peak - base
	}
	it.feedBlock = f.blocked

	if res != nil {
		it.results = res.Results
		for _, op := range res.Operators {
			it.triggers += op.TriggersFired
		}
		if res.Halted != nil && runErr == nil {
			runErr = fmt.Errorf("run halted: %v", res.Halted)
		}
		for _, b := range res.Backends {
			if b.WriteErrors+b.ReadErrors > 0 && runErr == nil {
				runErr = fmt.Errorf("store %s/%d reported %d write and %d read errors",
					b.Stage, b.Worker, b.WriteErrors, b.ReadErrors)
			}
		}
	}
	if runErr != nil {
		it.err = runErr
		return it
	}
	// A result's latency runs from the due time of the first source
	// tuple whose timestamp passes the result's; results fired only by
	// end of stream have no such tuple and are left out.
	for _, a := range arrivals {
		i := sort.Search(len(tuples), func(i int) bool { return tuples[i].TS > a.ts })
		if i < len(tuples) {
			it.latencies = append(it.latencies, time.Duration(a.at-f.due(i)))
		}
	}
	if w.RateTPS > 0 {
		it.lags = make([]time.Duration, len(tuples))
		for i := range tuples {
			it.lags[i] = time.Duration(f.sent[i] - f.due(i))
		}
	}
	it.err = check(out, ref)
	return it
}
