package main

import (
	"fmt"
	"io"
	"time"

	"flowkv/internal/metrics"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees and what this
// host can resolve within a regression bound; BENCHMARK.json lists the
// same names, units and bounds. They are the last line's metrics with
// -trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_event", "us"},
	{"allocs_per_event", "count"},
	{"peak_heap_mb", "MiB"},
}

// Wall-clock metrics are reported beside them in the summary and the
// record, but this host's neighbours move them by more than any bound
// a gate may use (see README.md), so they are not gated.
var wallClockMetrics = []metricDef{
	{"throughput_eps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"commit_p90_ms", "ms"},
}

// perLayerMetrics lists every per-layer metric of a traced run.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"nexmark.lag_p99_ms", "ms"},
		{"nexmark.lag_max_ms", "ms"},
		{"spe.feed_block_s", "s"},
		{"spe.triggers_fired", "count"},
		{"spe.results", "count"},
		{"spe.residual_cpu_s", "s"},
	}
	for _, p := range []string{"rmw", "aar", "aur"} {
		for _, op := range patternOps[p] {
			defs = append(defs,
				metricDef{storeKey(p, op, "calls"), "count"},
				metricDef{storeKey(p, op, "time_s"), "s"},
				metricDef{storeKey(p, op, "p99_us"), "us"})
		}
	}
	return append(defs, []metricDef{
		{"core.prefetch_hit_ratio", "ratio"},
		{"core.prefetch_lookups", "count"},
		{"core.prefetch_evictions", "count"},
		{"core.compactions", "count"},
		{"core.live_states", "count"},
		{"core.disk_bytes", "bytes"},
		{"core.buffered_bytes", "bytes"},
		{"logfile.bytes_written_per_event", "bytes"},
		{"logfile.bytes_read_per_event", "bytes"},
		{"breakdown.write_s", "s"},
		{"breakdown.read_s", "s"},
		{"breakdown.compact_s", "s"},
		{"breakdown.iowait_s", "s"},
		{"logfile.write_p99_us", "us"},
		{"logfile.read_p99_us", "us"},
		{"logfile.sync_p99_us", "us"},
		{"ckpt.commits", "count"},
		{"ckpt.snapshot_p50_ms", "ms"},
		{"ckpt.snapshot_p90_ms", "ms"},
		{"ckpt.coordinator_p50_ms", "ms"},
		{"ckpt.copied_bytes_per_commit", "bytes"},
		{"ckpt.linked_share", "ratio"},
		{"go.gc_cpu_share", "ratio"},
		{"go.gc_cycles", "count"},
		{"go.sched_latency_p99_us", "us"},
		{"trace.overhead_cpu_share", "ratio"},
	}...)
}

// dispersion is a metric's spread over the iterations of one run.
type dispersion struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func disperse(values []float64) dispersion {
	q1, m, q3 := quartiles(values)
	return dispersion{Median: m, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// report holds every number one run produced.
type report struct {
	Workload    string                `json:"workload"`
	Tuples      int                   `json:"tuples_per_iteration"`
	Iterations  int                   `json:"iterations"`
	Traced      int                   `json:"traced_iterations"`
	Failed      int                   `json:"failed"`
	Errors      []string              `json:"errors,omitempty"`
	Values      map[string]float64    `json:"values"`
	Spread      map[string]dispersion `json:"spread"`
	Pooled      pooled                `json:"pooled"`
	FailedShare float64               `json:"failed_share"`
	// OverheadBase is the untraced cpu_us_per_event the tracing overhead
	// is measured against.
	OverheadBase float64 `json:"overhead_untraced_cpu_us_per_event,omitempty"`
}

// pooled holds quantiles over the samples of every measured iteration.
type pooled struct {
	LatencyP50Ms   float64 `json:"latency_p50_ms"`
	LatencyP99Ms   float64 `json:"latency_p99_ms"`
	LatencyP999Ms  float64 `json:"latency_p999_ms"`
	LatencyMaxMs   float64 `json:"latency_max_ms"`
	LatencySamples int     `json:"latency_samples"`
	CommitP50Ms    float64 `json:"commit_p50_ms"`
	CommitP90Ms    float64 `json:"commit_p90_ms"`
	CommitMaxMs    float64 `json:"commit_max_ms"`
	CommitSamples  int     `json:"commit_samples"`
}

// newReport reduces a run's iterations to its metrics. Each end-to-end
// value comes from one per-iteration statistic over the run's
// iterations: for timings, the quartile on the better side (first
// quartile of a cost, third of a rate), because noise from other tenants
// of the host only ever slows an iteration down, and the better quartile
// of many short iterations tracks the program rather than the
// neighbours; for counts, the median. The medians and pooled tails are
// recorded beside them.
func newReport(w workload, tuples int, setups []float64, its []*iteration) *report {
	r := &report{Workload: w.Name, Tuples: tuples, Iterations: len(its),
		Values: map[string]float64{}, Spread: map[string]dispersion{}}
	var plain, traced []*iteration
	for _, it := range its {
		if it.err != nil {
			r.Failed++
			r.Errors = append(r.Errors, it.err.Error())
			continue
		}
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	r.Traced = len(traced)

	const (
		cost  = iota // a timing, lower is better
		rate         // a timing, higher is better
		count        // not a timing
	)
	set := func(name string, kind int, d dispersion) {
		r.Spread[name] = d
		switch kind {
		case cost:
			r.Values[name] = d.Q1
		case rate:
			r.Values[name] = d.Q3
		default:
			r.Values[name] = d.Median
		}
	}
	set("setup_s", cost, disperse(setups))
	for _, m := range []struct {
		name string
		kind int
		f    func(*iteration) float64
	}{
		{"throughput_eps", rate, func(it *iteration) float64 { return float64(it.tuples) / it.wall.Seconds() }},
		{"cpu_us_per_event", cost, cpuPerTuple},
		{"cpu_user_us_per_event", cost, func(it *iteration) float64 { return float64(it.user) / 1e3 / float64(it.tuples) }},
		{"cpu_sys_us_per_event", cost, func(it *iteration) float64 { return float64(it.sys) / 1e3 / float64(it.tuples) }},
		{"allocs_per_event", count, func(it *iteration) float64 { return float64(it.rt.allocs) / float64(it.tuples) }},
		{"peak_heap_mb", count, func(it *iteration) float64 { return float64(it.peakHeap) / (1 << 20) }},
		{"latency_p50_ms", cost, func(it *iteration) float64 { return ms(rank(it.latencies, 0.50)) }},
		{"latency_p99_ms", cost, func(it *iteration) float64 { return ms(rank(it.latencies, 0.99)) }},
		{"commit_p50_ms", cost, func(it *iteration) float64 { return ms(rank(it.pauses, 0.50)) }},
		{"commit_p90_ms", cost, func(it *iteration) float64 { return ms(rank(it.pauses, 0.90)) }},
	} {
		set(m.name, m.kind, disperse(collect(plain, m.f)))
	}

	var lat, pauses []time.Duration
	for _, it := range plain {
		lat = append(lat, it.latencies...)
		pauses = append(pauses, it.pauses...)
	}
	r.Pooled = pooled{
		LatencyP50Ms: ms(rank(lat, 0.50)), LatencyP99Ms: ms(rank(lat, 0.99)),
		LatencyP999Ms: ms(rank(lat, 0.999)), LatencyMaxMs: ms(rank(lat, 1)), LatencySamples: len(lat),
		CommitP50Ms: ms(rank(pauses, 0.50)), CommitP90Ms: ms(rank(pauses, 0.90)),
		CommitMaxMs: ms(rank(pauses, 1)), CommitSamples: len(pauses),
	}

	if len(traced) == 0 {
		return r
	}
	layers := make([]map[string]float64, len(traced))
	for i, it := range traced {
		layers[i] = layerValues(it)
	}
	for _, d := range perLayerMetrics() {
		if d.name == "trace.overhead_cpu_share" {
			continue
		}
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[d.name])
		}
		r.Spread[d.name] = disperse(vs)
		r.Values[d.name] = r.Spread[d.name].Median
	}
	// Same estimator on both sides: the better quartile.
	base := r.Values["cpu_us_per_event"]
	tracedCPU := disperse(collect(traced, cpuPerTuple)).Q1
	if base > 0 {
		r.OverheadBase = base
		r.Values["trace.overhead_cpu_share"] = (tracedCPU - base) / base
	}
	return r
}

func cpuPerTuple(it *iteration) float64 { return float64(it.cpu) / 1e3 / float64(it.tuples) }

func collect(its []*iteration, f func(*iteration) float64) []float64 {
	var vs []float64
	for _, it := range its {
		vs = append(vs, f(it))
	}
	return vs
}

// layerValues computes one traced iteration's per-layer metrics.
func layerValues(it *iteration) map[string]float64 {
	v := map[string]float64{}
	rec := it.rec
	n := float64(it.tuples)

	v["nexmark.lag_p99_ms"] = ms(rank(it.lags, 0.99))
	v["nexmark.lag_max_ms"] = ms(rank(it.lags, 1))

	var storeTime time.Duration
	for p, ops := range patternOps {
		for _, op := range ops {
			s := &rec.ops[p][op]
			t := time.Duration(s.nanos.Load())
			storeTime += t
			v[storeKey(p, op, "calls")] = float64(s.calls.Load())
			v[storeKey(p, op, "time_s")] = t.Seconds()
			v[storeKey(p, op, "p99_us")] = float64(s.hist.P99()) / 1e3
		}
	}
	v["spe.feed_block_s"] = it.feedBlock.Seconds()
	v["spe.triggers_fired"] = float64(it.triggers)
	v["spe.results"] = float64(it.results)
	// Store call time is wall time inside the calls; checkpoint
	// snapshots are left in, since their time is mostly fsync waits.
	v["spe.residual_cpu_s"] = it.cpu.Seconds() - storeTime.Seconds() - it.rt.gcCPUSeconds

	var hits, misses, evictions, compactions, linked, copied int64
	var writeP99, readP99, syncP99 time.Duration
	for _, st := range rec.final {
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
		compactions += st.Compactions
		linked += st.CkptLinkedBytes
		copied += st.CkptCopiedBytes
		writeP99 = max(writeP99, st.WriteP99)
		readP99 = max(readP99, st.ReadP99)
		syncP99 = max(syncP99, st.SyncP99)
	}
	if hits+misses > 0 {
		v["core.prefetch_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["core.prefetch_lookups"] = float64(hits + misses)
	v["core.prefetch_evictions"] = float64(evictions)
	v["core.compactions"] = float64(compactions)
	v["core.live_states"] = float64(rec.peak.liveStates)
	v["core.disk_bytes"] = float64(rec.peak.diskBytes)
	v["core.buffered_bytes"] = float64(rec.peak.bufferedBytes)

	bd := it.bd
	v["logfile.bytes_written_per_event"] = float64(bd.BytesWritten()) / n
	v["logfile.bytes_read_per_event"] = float64(bd.BytesRead()) / n
	v["breakdown.write_s"] = bd.Total(metrics.OpWrite).Seconds()
	v["breakdown.read_s"] = bd.Total(metrics.OpRead).Seconds()
	v["breakdown.compact_s"] = bd.Total(metrics.OpCompact).Seconds()
	v["breakdown.iowait_s"] = bd.Total(metrics.OpIOWait).Seconds()
	v["logfile.write_p99_us"] = float64(writeP99) / 1e3
	v["logfile.read_p99_us"] = float64(readP99) / 1e3
	v["logfile.sync_p99_us"] = float64(syncP99) / 1e3

	v["ckpt.commits"] = float64(it.commits)
	v["ckpt.snapshot_p50_ms"] = ms(rank(rec.snapshots, 0.50))
	v["ckpt.snapshot_p90_ms"] = ms(rank(rec.snapshots, 0.90))
	v["ckpt.coordinator_p50_ms"] = ms(rank(rec.coord, 0.50))
	if it.commits > 0 {
		v["ckpt.copied_bytes_per_commit"] = float64(copied) / float64(it.commits)
	}
	if linked+copied > 0 {
		v["ckpt.linked_share"] = float64(linked) / float64(linked+copied)
	}

	v["go.gc_cpu_share"] = it.rt.gcCPUShare
	v["go.gc_cycles"] = float64(it.rt.gcCycles)
	v["go.sched_latency_p99_us"] = it.rt.schedP99Micro
	return v
}

// print writes the human-readable summary.
func (r *report) print(w io.Writer, recPath string) {
	fmt.Fprintf(w, "workload %s: %d tuples per iteration, %d iterations (%d traced), %d failed (failed_share %.3f)\n",
		r.Workload, r.Tuples, r.Iterations, r.Traced, r.Failed, r.FailedShare)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range defs {
			v, ok := r.Values[d.name]
			if !ok {
				continue
			}
			if s := r.Spread[d.name]; s.N > 1 {
				fmt.Fprintf(w, "    %-34s %14.4f %-6s (median %.4f, q1 %.4f, q3 %.4f, n %d)\n",
					d.name, v, d.unit, s.Median, s.Q1, s.Q3, s.N)
			} else {
				fmt.Fprintf(w, "    %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	section("end to end (gated):", endToEndMetrics)
	section("wall clock (not gated):", wallClockMetrics)
	if r.Traced > 0 {
		section("per layer (traced iterations):", perLayerMetrics())
	}
	p := r.Pooled
	fmt.Fprintf(w, "  pooled latency p50 %.3f p99 %.3f p99.9 %.3f max %.3f ms over %d samples\n",
		p.LatencyP50Ms, p.LatencyP99Ms, p.LatencyP999Ms, p.LatencyMaxMs, p.LatencySamples)
	fmt.Fprintf(w, "  pooled commit p50 %.3f p90 %.3f max %.3f ms over %d samples\n",
		p.CommitP50Ms, p.CommitP90Ms, p.CommitMaxMs, p.CommitSamples)
	fmt.Fprintf(w, "  record: %s\n", recPath)
}
