// Command compare reads two sets of benchmark run records (the JSON files
// run.sh writes under <build>/results) and prints, per workload, the
// median and quartiles of every end-to-end metric on each side, the
// per-layer medians of the traced runs and the per-program medians of
// the suite, each with its change. It flags an end-to-end metric whose
// new median is worse than the old one by more than the metric's bound
// in BENCHMARK.json, and exits 1 when it flags any, or when a new run
// reported a wrong answer.
//
// Usage, from the ledger directory:
//
//	go run ./cmd/compare [-spec ../BENCHMARK.json] OLD_DIR NEW_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"softbound/ledger/internal/report"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] OLD_DIR NEW_DIR")
		os.Exit(2)
	}
	flagged, err := compare(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if flagged > 0 {
		fmt.Fprintf(os.Stdout, "\n%d finding(s) outside the benchmark's bounds\n", flagged)
		os.Exit(1)
	}
}

// compare writes the comparison and returns how many findings it
// flagged.
func compare(w io.Writer, specPath, oldDir, newDir string) (int, error) {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	old, err := load(oldDir)
	if err != nil {
		return 0, err
	}
	cur, err := load(newDir)
	if err != nil {
		return 0, err
	}
	flagged := 0
	for _, wl := range sp.Workloads {
		o, n := old[wl.Name], cur[wl.Name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "== %s: no runs on one side, skipped\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "== %s: %d/%d untraced, %d/%d traced runs (old/new)\n",
			wl.Name, len(o.runs(false)), len(n.runs(false)), len(o.runs(true)), len(n.runs(true)))
		for _, r := range n.recs {
			if !r.Result.Correct {
				fmt.Fprintf(w, "FLAG  new run seed %d trace %v: %d of %d operations failed\n",
					r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
				flagged++
			}
		}
		fmt.Fprintf(w, "%-28s %12s %12s %12s   %12s %12s %12s %9s\n",
			"end-to-end", "old q1", "old median", "old q3", "new q1", "new median", "new q3", "change")
		for _, m := range sp.EndToEnd {
			ov, nv := o.values(false, m.Name), n.values(false, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, oq3 := report.Quartiles(ov)
			nq1, nq3 := report.Quartiles(nv)
			om, nm := report.Median(ov), report.Median(nv)
			change := rel(nm, om)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := ""
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("  FLAG worse by more than %.0f%%", 100*m.Bound)
				flagged++
			case om != 0 && (oq3-oq1)/om > m.Bound:
				verdict = "  unresolved: old spread exceeds the bound"
			}
			fmt.Fprintf(w, "%-28s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g %+8.1f%%%s\n",
				m.Name+" ("+m.Unit+")", oq1, om, oq3, nq1, nm, nq3, 100*change, verdict)
		}
		rows := func(title string, names []string, get func(*set, string) []float64) {
			printed := false
			for _, name := range names {
				ov, nv := get(o, name), get(n, name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				if !printed {
					fmt.Fprintf(w, "%-40s %14s %14s %9s\n", title, "old median", "new median", "change")
					printed = true
				}
				om, nm := report.Median(ov), report.Median(nv)
				fmt.Fprintf(w, "%-40s %14.6g %14.6g %+8.1f%%\n", name, om, nm, 100*rel(nm, om))
			}
		}
		var layers []string
		for _, m := range sp.PerLayer {
			layers = append(layers, m.Name)
		}
		rows("per-layer (traced)", layers, func(s *set, name string) []float64 { return s.values(true, name) })
		rows("per-program (untraced)", n.programNames(), func(s *set, name string) []float64 { return s.program(name) })
	}
	return flagged, nil
}

// rel is the relative change from old to cur (0 when old is 0).
func rel(cur, old float64) float64 {
	if old == 0 {
		return 0
	}
	return cur/old - 1
}

// set is one side's records for one workload.
type set struct{ recs []*report.Record }

func (s *set) runs(trace bool) []*report.Record {
	var out []*report.Record
	for _, r := range s.recs {
		if r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func (s *set) values(trace bool, name string) []float64 {
	var out []float64
	for _, r := range s.runs(trace) {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (s *set) program(name string) []float64 {
	var out []float64
	for _, r := range s.runs(false) {
		if v, ok := r.Programs[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func (s *set) programNames() []string {
	seen := map[string]bool{}
	for _, r := range s.runs(false) {
		for k := range r.Programs {
			seen[k] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// load reads every record in dir, grouped by workload.
func load(dir string) (map[string]*set, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run records in %s", dir)
	}
	out := map[string]*set{}
	for _, p := range paths {
		r, err := report.ReadRecord(p)
		if err != nil {
			return nil, err
		}
		if out[r.Workload] == nil {
			out[r.Workload] = &set{}
		}
		out[r.Workload].recs = append(out[r.Workload].recs, r)
	}
	return out, nil
}
