// Command ledger is the repository's benchmark: the paper's program suite
// run in process, and hot and cold traffic through a real sbrouter +
// sbserve fleet, each checked operation by operation against frozen
// reference-engine answers. An untraced run reports the end-to-end
// metrics; a traced run replays the pipeline stage by stage through the
// packages' public functions and reports the per-layer ledger.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	ledger -workload suite|serve-hot|serve-cold -seed N -seconds S -trace 0|1
//	       [-bin DIR] [-out DIR] [-spec BENCHMARK.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the metric names and units are
// those BENCHMARK.json declares (end_to_end untraced, per_layer traced).
// Progress and a human-readable summary go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"softbound/ledger/internal/report"
)

// maxFailures bounds the failure descriptions kept in the record.
const maxFailures = 20

// run is one benchmark invocation: its parameters and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	binDir   string // sbserve and sbrouter builds
	workDir  string // working space for fleet spools and logs

	rng *rand.Rand

	metrics   map[string]report.Metric
	attempted int
	failed    int
	failures  []string
	programs  map[string]float64
	spans     []report.Span
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = report.Metric{Value: v, Unit: unit}
}

// check counts one operation and records it as failed when why != "".
func (r *run) check(op, why string) {
	r.attempted++
	if why == "" {
		return
	}
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, op+": "+why)
	}
	fmt.Fprintf(os.Stderr, "ledger: FAIL %s: %s\n", op, why)
}

// shuffled returns a seeded permutation of 0..n-1.
func (r *run) shuffled(n int) []int { return r.rng.Perm(n) }

// spec is the part of BENCHMARK.json the runner checks its output
// against.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload: suite, serve-hot or serve-cold")
	seed := flag.Int64("seed", 1, "seed that orders the workload's cells or requests")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding sbserve and sbrouter builds")
	workDir := flag.String("work", ".bench_build/work", "working directory for fleet spools and logs")
	outDir := flag.String("out", "", "directory to write the run record into (empty = none)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *binDir, *workDir, *outDir, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds int, trace bool, binDir, workDir, outDir, specPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	r := newRun(workload, seed, time.Duration(seconds)*time.Second, trace, binDir, workDir)
	if err := r.measure(); err != nil {
		return err
	}
	if err := r.conform(sp.metrics(trace)); err != nil {
		return err
	}
	res := r.result()
	r.summarize()
	if outDir != "" {
		if err := r.writeRecord(outDir, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func newRun(workload string, seed int64, seconds time.Duration, trace bool, binDir, workDir string) *run {
	return &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		binDir:   binDir,
		workDir:  workDir,
		rng:      rand.New(rand.NewSource(seed)),
		metrics:  map[string]report.Metric{},
		programs: map[string]float64{},
	}
}

// measure runs the workload.
func (r *run) measure() error {
	switch r.workload {
	case "suite":
		return r.suite()
	case "serve-hot", "serve-cold":
		return r.serve()
	}
	return fmt.Errorf("unknown workload %q (want suite, serve-hot or serve-cold)", r.workload)
}

func (r *run) result() report.Result {
	return report.Result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// metrics returns the metrics a run reports: end_to_end untraced,
// per_layer traced.
func (sp *spec) metrics(trace bool) []specMetric {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

func readSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// conform checks that the run measured exactly the declared metrics, in
// the declared units.
func (r *run) conform(want []specMetric) error {
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		got, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.metrics {
		if !names[name] {
			return fmt.Errorf("metric %s is not declared in the benchmark definition", name)
		}
	}
	return nil
}

// summarize prints the metrics as a table on standard error.
func (r *run) summarize() {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "ledger: %s seed=%d trace=%v attempted=%d failed=%d\n",
		r.workload, r.seed, r.trace, r.attempted, r.failed)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func (r *run) writeRecord(dir string, res report.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := report.Record{
		Workload: r.workload,
		Seed:     r.seed,
		Trace:    r.trace,
		Result:   res,
		Programs: r.programs,
		Failures: r.failures,
		Spans:    r.spans,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.workload, r.seed, b2i(r.trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
