// Command perfbench is the repository's end-to-end benchmark: it runs
// one NEXMark workload against the FlowKV backend for a fixed time,
// checks every run's output against an in-memory reference, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"flowkv/internal/spe"
)

// Seeds: the default one the baseline was measured on, and a held-out
// one that a performance claim must also hold on.
const (
	defaultSeed  = 2023
	heldOutSeed  = 7919
	setupRepeats = 9
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	cpuprofile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from traced iterations")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured iterations here")
	flag.Parse()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (int, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.trace != 0 && o.trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	// Work state, records and traces live under the current directory.
	out, err := filepath.Abs(".bench_out")
	if err != nil {
		return 1, err
	}
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)

	// Set-up: generate the input several times and time the CPU each
	// repeat takes, which wall time on a shared host cannot resolve; the
	// report keeps the better quartile, like every timing.
	var setups []float64
	var input []spe.Tuple
	for range setupRepeats {
		runtime.GC() // each repeat starts from the same heap
		user0, sys0 := processCPU()
		if input, err = generate(w, o.seed); err != nil {
			return 1, err
		}
		user, sys := processCPU()
		setups = append(setups, (user - user0 + sys - sys0).Seconds())
	}
	ref, err := reference(w, input, filepath.Join(work, "reference"))
	if err != nil {
		return 1, err
	}

	// One unmeasured warm-up iteration lets caches and the heap settle;
	// its output is checked like every other.
	warm := runIteration(w, input, ref, filepath.Join(work, "warm-up"), false)
	if warm.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s warm-up: %v\n", w.Name, warm.err)
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 1, err
		}
		defer pprof.StopCPUProfile()
	}

	// Measure: whole iterations while the next one still fits in the
	// time. A traced run alternates untraced and traced iterations so
	// the tracing overhead is measured under the same conditions.
	var its []*iteration
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for n := 0; ; n++ {
		if elapsed := time.Since(start); n > 0 && elapsed+elapsed/time.Duration(n) > budget &&
			(o.trace == 0 || n >= 2) {
			break
		}
		traced := o.trace == 1 && n%2 == 1
		dir := filepath.Join(work, fmt.Sprintf("iter-%03d", n))
		it := runIteration(w, input, ref, dir, traced)
		if it.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", w.Name, n, it.err)
		}
		its = append(its, it)
	}

	rep := newReport(w, len(input), setups, its)
	if warm.err != nil {
		rep.Failed++
		rep.Errors = append(rep.Errors, "warm-up: "+warm.err.Error())
	}
	attempted := len(its) + 1 // the warm-up is checked too
	rep.FailedShare = float64(rep.Failed) / float64(attempted)
	rec := record{Provenance: provenance(o, w, len(its)), Report: rep}
	if o.trace == 1 {
		tracePath, err := writeTrace(out, o, its)
		if err != nil {
			return 1, err
		}
		rec.TraceFile = tracePath
	}
	recPath, err := writeRecord(out, o, w, rec)
	if err != nil {
		return 1, err
	}
	rep.print(os.Stdout, recPath)

	v := verdict{Correct: rep.Failed == 0, Attempted: attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	names := endToEndMetrics
	if o.trace == 1 {
		names = perLayerMetrics()
	}
	for _, n := range names {
		v.Metrics[n.name] = metric{Value: rep.Values[n.name], Unit: n.unit}
	}
	line, err := json.Marshal(v)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return 1, fmt.Errorf("%d of %d iterations failed", rep.Failed, attempted)
	}
	return 0, nil
}

// provenanceInfo identifies what was measured and where.
type provenanceInfo struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	Seed       int64    `json:"seed"`
	HeldOut    int64    `json:"held_out_seed"`
	Workload   workload `json:"workload"`
	WindowMs   int      `json:"window_ms"`
	Par        int      `json:"parallelism"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Runs       int      `json:"runs"`
	Time       string   `json:"time"`
}

func provenance(o options, w workload, runs int) provenanceInfo {
	return provenanceInfo{
		Commit: sourceCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: o.seed, HeldOut: heldOutSeed, Workload: w, WindowMs: windowMs,
		Par: parallelism, Seconds: o.seconds, Trace: o.trace, Runs: runs,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceCommit names the measured source: the git commit when the tree
// is a checkout with its .git directory, otherwise a digest of the Go
// sources and module files.
func sourceCommit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is the full result of one benchmark run, kept on disk.
type record struct {
	Provenance provenanceInfo `json:"provenance"`
	Report     *report        `json:"report"`
	TraceFile  string         `json:"trace_file,omitempty"`
}

func writeRecord(out string, o options, w workload, rec record) (string, error) {
	dir := filepath.Join(out, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", w.Name, o.seed, o.trace, time.Now().UTC().Format("20060102T150405.000"))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, b, 0o644)
}

// writeTrace writes the spans of every traced iteration.
func writeTrace(out string, o options, its []*iteration) (string, error) {
	var spans []span
	for _, it := range its {
		if it.rec == nil {
			continue
		}
		spans = append(spans, it.rec.spans...)
	}
	dir := filepath.Join(out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, time.Now().UTC().Format("20060102T150405.000")))
	return path, os.WriteFile(path, b, 0o644)
}
