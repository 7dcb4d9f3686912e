package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowkv/internal/core"
	"flowkv/internal/faultfs"
	"flowkv/internal/harness"
	"flowkv/internal/nexmark/queries"
	"flowkv/internal/spe"
	"flowkv/internal/statebackend"
)

// small shrinks a workload so a test iteration takes well under a second.
func small(w workload) workload {
	w.Events = 20_000
	if w.RateTPS > 0 {
		w.RateTPS = 200_000
	}
	if w.CheckpointEvery > 0 {
		w.CheckpointEvery = 1_000
	}
	return w
}

func prepare(t *testing.T, w workload, seed int64) ([]spe.Tuple, []result) {
	t.Helper()
	tuples, err := generate(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(w, tuples, filepath.Join(t.TempDir(), "reference"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference produced no results")
	}
	return tuples, ref
}

// Every workload passes the output oracle on the default and the
// held-out seed, traced and untraced.
func TestOraclePassesOnBothSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			w := small(w)
			tuples, ref := prepare(t, w, seed)
			for _, traced := range []bool{false, true} {
				it := runIteration(w, tuples, ref, filepath.Join(t.TempDir(), "run"), traced)
				if it.err != nil {
					t.Errorf("%s seed %d traced %v: %v", w.Name, seed, traced, it.err)
				}
				if w.CheckpointEvery > 0 && it.commits < 2 {
					t.Errorf("%s: %d commits", w.Name, it.commits)
				}
			}
		}
	}
}

// The oracle rejects a reference that differs from the true output by
// one value or one missing result, on a Run and on a Job ledger.
func TestOracleRejectsCorruptedReference(t *testing.T) {
	for _, name := range []string{"q11m-open", "q5a-ckpt"} {
		w, _ := findWorkload(name)
		w = small(w)
		tuples, ref := prepare(t, w, defaultSeed)
		corrupt := map[string][]result{
			"value":   append([]result(nil), ref...),
			"missing": append([]result(nil), ref[1:]...),
		}
		corrupt["value"][len(ref)/2].Value += "x"
		for kind, bad := range corrupt {
			it := runIteration(w, tuples, bad, filepath.Join(t.TempDir(), "run"), false)
			if it.err == nil {
				t.Errorf("%s: oracle accepted a reference with a %s result", name, kind)
			}
		}
	}
}

// jobOutcome is what must not change when the timing probe is installed.
type jobOutcome struct {
	ledger  []byte
	commits int64
	linked  int64
}

func runJob(t *testing.T, w workload, tuples []spe.Tuple, wrap bool) jobOutcome {
	t.Helper()
	dir := t.TempDir()
	q, err := queries.Build(w.Query, queries.Config{Backend: statebackend.KindFlowKV,
		BaseDir: filepath.Join(dir, "state"), Parallelism: parallelism, WindowMs: windowMs,
		FlowKV: harness.ScaledStoreOptions().FlowKV})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder("test")
	var raw []statebackend.Backend
	for i := range q.Pipeline.Stages {
		st := &q.Pipeline.Stages[i]
		if open := st.NewBackend; open != nil {
			st.NewBackend = func(worker int) (statebackend.Backend, error) {
				b, err := open(worker)
				if err != nil {
					return nil, err
				}
				raw = append(raw, b)
				if wrap {
					return rec.wrap(b), nil
				}
				return b, nil
			}
		}
	}
	var out jobOutcome
	jobDir := filepath.Join(dir, "job")
	job := &spe.Job{Pipeline: q.Pipeline, Dir: jobDir, CheckpointEvery: w.CheckpointEvery,
		Source:       &jobSource{feeder: &feeder{tuples: tuples, origin: time.Now(), sent: make([]int64, len(tuples))}, every: w.CheckpointEvery},
		OnCheckpoint: func(int64, bool) { out.commits++ }}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if out.ledger, err = spe.ReadLedgerBytes(faultfs.OS, jobDir); err != nil {
		t.Fatal(err)
	}
	for _, b := range raw {
		st, ok := statebackend.FlowKVStats(b)
		if !ok {
			t.Fatalf("backend %s is not FlowKV", b.Name())
		}
		out.linked += st.CkptLinkedBytes
	}
	if wrap {
		var seen int64
		for _, st := range rec.final {
			seen += st.CkptLinkedBytes
		}
		if seen != out.linked {
			t.Errorf("probe saw %d linked bytes, stores report %d", seen, out.linked)
		}
		if len(rec.snapshots) == 0 {
			t.Error("probe timed no snapshots")
		}
	}
	return out
}

// The timing probe is transparent: a job behind it commits the same
// ledger, the same number of generations, and links the same bytes
// (so it still takes the delta checkpoint path). Q5-Append's stores link
// exactly the same bytes on every run; the AUR store's count moves by a
// few bytes from run to run even unwrapped, with its background timing,
// so Q11-Median is held to a 1% tolerance.
func TestProbeIsTransparent(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tolerance float64
	}{{"q5a-ckpt", 0}, {"q11m-ckpt", 0.01}} {
		w, _ := findWorkload(tc.name)
		w = small(w)
		tuples, err := generate(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		plain := runJob(t, w, tuples, false)
		probed := runJob(t, w, tuples, true)
		if !bytes.Equal(plain.ledger, probed.ledger) {
			t.Errorf("%s: ledgers differ (%d vs %d bytes)", tc.name, len(plain.ledger), len(probed.ledger))
		}
		if plain.commits != probed.commits || plain.commits < 2 {
			t.Errorf("%s: commits %d unwrapped, %d wrapped", tc.name, plain.commits, probed.commits)
		}
		diff := math.Abs(float64(plain.linked - probed.linked))
		if plain.linked == 0 || diff > tc.tolerance*float64(plain.linked) {
			t.Errorf("%s: linked bytes %d unwrapped, %d wrapped", tc.name, plain.linked, probed.linked)
		}
	}
}

// The probe reaches the store through Unwrap and the checkpoint
// capability probes.
func TestProbeKeepsCapabilities(t *testing.T) {
	b, err := statebackend.Open(statebackend.Config{Kind: statebackend.KindFlowKV, Dir: t.TempDir(),
		Agg: core.AggIncremental, WindowKind: 0, FlowKV: harness.ScaledStoreOptions().FlowKV})
	if err != nil {
		t.Fatal(err)
	}
	p := newRecorder("test").wrap(b)
	defer p.Destroy()
	if _, ok := statebackend.FlowKVStats(p); !ok {
		t.Error("FlowKVStats does not reach the store through the probe")
	}
	if _, ok := statebackend.FlowKVHealth(p); !ok {
		t.Error("FlowKVHealth does not reach the store through the probe")
	}
	if dc, ok := statebackend.AsDeltaCheckpointer(p); !ok || any(dc) != any(p) {
		t.Error("the probe does not offer delta checkpoints itself")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, m, q3)
	}
}

func TestPerLayerNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(perLayerMetrics(), endToEndMetrics...) {
		if seen[d.name] || strings.ContainsAny(d.name, " /") || len(d.name) > 64 {
			t.Errorf("bad or repeated metric name %q", d.name)
		}
		seen[d.name] = true
	}
}

// BENCHMARK.json declares exactly the metrics the last line carries,
// and only workloads the benchmark has.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics())
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", w.Name)
		}
	}
}
