package main

import (
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"softbound/internal/driver"
	"softbound/internal/serve"
	"softbound/ledger/data"
	"softbound/ledger/internal/corpus"
	"softbound/ledger/internal/report"
)

// binDir holds sbserve and sbrouter built for the fleet tests ("" under
// -short, where those tests are skipped).
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "ledger-bin-")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			for _, cmd := range []string{"sbserve", "sbrouter"} {
				out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "softbound/cmd/"+cmd).CombinedOutput()
				if err != nil {
					panic(string(out))
				}
			}
			binDir = dir
		}
		return m.Run()
	}())
}

func needFleet(t *testing.T) {
	t.Helper()
	if binDir == "" {
		t.Skip("fleet tests build and spawn sbserve/sbrouter; skipped with -short")
	}
}

func suiteCell(t *testing.T, id string) (corpus.Cell, corpus.Answer) {
	t.Helper()
	oracle, err := corpus.ParseSuite(data.Suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.SuiteCells() {
		if c.ID() == id {
			return c, oracle.Answers[id]
		}
	}
	t.Fatalf("no suite cell %s", id)
	return corpus.Cell{}, corpus.Answer{}
}

// A suite cell checked against a deliberately wrong answer must count as
// failed.
func TestSuiteWrongAnswerFails(t *testing.T) {
	c, want := suiteCell(t, "mst/shadowspace-full")
	r := newRun("suite", 1, time.Second, false, "", "")
	_, why := runCell(c, want)
	r.check(c.ID(), why)
	for _, tamper := range []func(*corpus.Answer){
		func(a *corpus.Answer) { a.Exit++ },
		func(a *corpus.Answer) { a.Trap = "spatial-violation" },
		func(a *corpus.Answer) { a.Output = corpus.HashOutput("wrong") },
		func(a *corpus.Answer) { a.SimInsts++ },
	} {
		bad := want
		tamper(&bad)
		_, why := runCell(c, bad)
		r.check(c.ID(), why)
	}
	if r.attempted != 5 || r.failed != 4 {
		t.Fatalf("attempted=%d failed=%d, want 5 and 4", r.attempted, r.failed)
	}
	if res := r.result(); res.Correct {
		t.Fatal("a run with failed operations reported correct")
	}
}

// A served answer that differs from the frozen one, a non-200 status and
// an unstructured body must each fail the request.
func TestServeWrongAnswerFails(t *testing.T) {
	hot, err := corpus.ParseServe(data.ServeHot)
	if err != nil {
		t.Fatal(err)
	}
	key := hot.Keys()[0]
	want := key.Want()
	right := serve.Response{ExitCode: want.Exit, TrapCode: want.Trap, Stats: nil}
	// The frozen table stores output digests; find the output by
	// re-running the cell so the right response is really right.
	c := key.Cell()
	cfg := c.Config.DriverConfig()
	res, err := driver.Run(c.Sources(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	right.Output = res.Output
	rep := res.Stats.Report()
	right.Stats = &rep

	cases := []struct {
		name   string
		status int
		body   any
		ok     bool
	}{
		{"right", http.StatusOK, right, true},
		{"wrong output", http.StatusOK, withOutput(right, right.Output+"x"), false},
		{"wrong exit", http.StatusOK, withExit(right, right.ExitCode+1), false},
		{"shed", http.StatusTooManyRequests, serve.ErrorBody{Error: "admission queue full"}, false},
		{"unstructured", http.StatusOK, "not a response", false},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(tc.status)
			if s, ok := tc.body.(string); ok {
				w.Write([]byte(s))
				return
			}
			json.NewEncoder(w).Encode(tc.body)
		}))
		s := send(srv.Client(), srv.URL, prepare([]corpus.Key{key})[0])
		srv.Close()
		if (s.why == "") != tc.ok {
			t.Errorf("%s: why=%q, want ok=%v", tc.name, s.why, tc.ok)
		}
	}
}

func withOutput(r serve.Response, out string) serve.Response { r.Output = out; return r }
func withExit(r serve.Response, code int64) serve.Response   { r.ExitCode = code; return r }

// The key sets are sized against the fleet's compile caches: serve-hot
// must fit, serve-cold must cycle through more than twice the capacity.
func TestKeySetSizing(t *testing.T) {
	hot, err := corpus.ParseServe(data.ServeHot)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := corpus.ParseServe(data.ServeCold)
	if err != nil {
		t.Fatal(err)
	}
	capacity := fleetBackends * backendCacheCap
	if n := len(hot.Keys()); n > capacity {
		t.Errorf("serve-hot has %d keys, more than the fleet's %d cache entries", n, capacity)
	}
	if n := len(cold.Keys()); n < 2*capacity {
		t.Errorf("serve-cold cycles %d keys, not at least twice the fleet's %d cache entries", n, capacity)
	}
	seen := map[string]bool{}
	for _, set := range []*corpus.ServeSet{hot, cold} {
		for _, p := range set.Programs {
			if seen[p.Source] {
				t.Errorf("program %s appears twice across the serve sets", p.Name)
			}
			seen[p.Source] = true
		}
	}
}

// On a live fleet, every backend's share of the hot set fits its cache
// (a second pass hits on every request), and every backend's share of
// the cold set exceeds its cache, so the cold cycle can never hit.
func TestFleetCacheFit(t *testing.T) {
	needFleet(t)
	r := newRun("serve-hot", 1, time.Second, false, binDir, t.TempDir())
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	for _, tc := range []struct {
		blob []byte
		hot  bool
	}{{data.ServeHot, true}, {data.ServeCold, false}} {
		set, err := corpus.ParseServe(tc.blob)
		if err != nil {
			t.Fatal(err)
		}
		reqs := prepare(set.Keys())
		f, err := startFleet(r.binDir, r.workDir)
		if err != nil {
			t.Fatal(err)
		}
		passes := 1
		if tc.hot {
			passes = 2
		}
		for p := 0; p < passes; p++ {
			for _, s := range r.load(client, f.base, reqs, 0, len(reqs), 0) {
				if s.why != "" {
					t.Errorf("%s: %s", s.op, s.why)
				}
			}
		}
		st, err := f.snapshot(client)
		if stopErr := f.stop(); stopErr != nil {
			t.Fatal(stopErr)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range st.backends {
			keys := b.Cache.Misses
			switch {
			case tc.hot && (b.Cache.Size != int(keys) || keys > backendCacheCap || b.Cache.Hits != keys):
				t.Errorf("hot backend %d: %d keys, cache size %d of %d, %d hits on the second pass",
					i, keys, b.Cache.Size, b.Cache.Cap, b.Cache.Hits)
			case !tc.hot && keys <= backendCacheCap:
				t.Errorf("cold backend %d owns only %d keys, within its %d-entry cache", i, keys, backendCacheCap)
			}
		}
	}
}

// A minimal-length run of each workload, untraced and traced, reports
// every metric BENCHMARK.json declares, each finite, with no failed
// operation.
func TestSmoke(t *testing.T) {
	needFleet(t)
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"suite", "serve-hot", "serve-cold"} {
		for _, trace := range []bool{false, true} {
			r := newRun(wl, 7, time.Second, trace, binDir, t.TempDir())
			if err := r.measure(); err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if err := r.conform(sp.metrics(trace)); err != nil {
				t.Errorf("%s trace=%v: %v", wl, trace, err)
			}
			res := r.result()
			if !res.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", wl, trace, res.Failed, res.Attempted, r.failures)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl, trace, name, m.Value)
				}
			}
			switch {
			case !trace:
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
					}
				}
			case wl == "serve-hot" && res.Metrics["cache.hit_frac"].Value < 0.99:
				t.Errorf("serve-hot compile-cache hit rate %v, want at least 0.99", res.Metrics["cache.hit_frac"].Value)
			case wl == "serve-cold" && res.Metrics["cache.hit_frac"].Value != 0:
				t.Errorf("serve-cold compile-cache hit rate %v, want 0", res.Metrics["cache.hit_frac"].Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := report.Quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || report.Median(v) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, report.Median(v))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = report.Quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two-value quartiles %v %v", q1, q3)
	}
}
