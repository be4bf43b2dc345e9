package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"softbound/internal/driver"
	"softbound/ledger/data"
	"softbound/ledger/internal/corpus"
	"softbound/ledger/internal/report"
)

// setupRounds is how many times a run sets up its workload; setup_s is
// the median.
const setupRounds = 3

// suite runs the paper's 135-cell matrix serially in process, the way
// bench.executeRun runs a cell: driver.CompileWithStats, then
// driver.Execute, on the default engine. An untraced run repeats whole
// passes, each in a freshly seeded order, while they fit in the
// measurement time (at least one); a traced run replays one pass.
func (r *run) suite() error {
	var oracle *corpus.SuiteOracle
	var cells []corpus.Cell
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if oracle, err = corpus.ParseSuite(data.Suite); err != nil {
			return err
		}
		cells = corpus.SuiteCells()
		// Warm-up: every program's baseline cell, so heap growth and other
		// lazy runtime set-up finish before the timed passes.
		for _, c := range cells {
			if c.Config.Name == "baseline" {
				_, why := runCell(c, oracle.Answers[c.ID()])
				r.check("setup "+c.ID(), why)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if !r.trace {
		r.set("setup_s", report.Median(setups), "s")
	}
	want := func(c corpus.Cell) corpus.Answer { return oracle.Answers[c.ID()] }

	if r.trace {
		l, err := r.traceLayers(cells, want)
		if err != nil {
			return err
		}
		r.set("op.compile_ms", report.Median(l.opCompile), "ms")
		r.set("op.execute_ms", report.Median(l.opExecute), "ms")
		r.set("op.outside_ms", report.Median(l.opOutside), "ms")
		r.setNoService()
		r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
		return nil
	}

	var lat []float64
	perProg := map[string]float64{}
	cellsRun := 0
	var busy time.Duration
	for pass := 0; ; pass++ {
		runtime.GC()
		start := time.Now()
		for _, i := range r.shuffled(len(cells)) {
			c := cells[i]
			d, why := runCell(c, want(c))
			r.check(c.ID(), why)
			lat = append(lat, ms(d))
			perProg["program.wall_s."+c.Program] += d.Seconds()
		}
		wall := time.Since(start)
		busy += wall
		cellsRun += len(cells)
		fmt.Fprintf(os.Stderr, "ledger: suite pass %d: %d cells in %.3fs\n", pass+1, len(cells), wall.Seconds())
		// Stop unless another pass of average length still fits.
		if busy+busy/time.Duration(pass+1) > r.seconds {
			for k, v := range perProg {
				r.programs[k] = v / float64(pass+1)
			}
			break
		}
	}
	r.set("ops_per_s", float64(cellsRun)/busy.Seconds(), "1/s")
	r.set("p50_ms", report.Percentile(lat, 50), "ms")
	r.set("p90_ms", report.Percentile(lat, 90), "ms")
	r.set("rss_mb", selfPeakRSS(), "MB")
	return nil
}

// runCell compiles and executes one cell as bench.executeRun does and
// checks the answer; it returns the cell's wall time and "" or the
// reason it failed.
func runCell(c corpus.Cell, want corpus.Answer) (time.Duration, string) {
	cfg := c.Config.DriverConfig()
	start := time.Now()
	mod, _, err := driver.CompileWithStats(c.Sources(), cfg)
	if err != nil {
		return time.Since(start), "compile: " + err.Error()
	}
	res := driver.Execute(mod, cfg)
	why := want.Diff(corpus.AnswerOf(res))
	return time.Since(start), why
}

// setNoService sets the service-path metrics to zero for a workload
// that sends no requests.
func (r *run) setNoService() {
	r.set("cache.hit_frac", 0, "ratio")
	r.set("cache.lookups", 0, "count")
	r.set("spool.written", 0, "count")
	r.set("fabric.busiest_share", 0, "ratio")
	r.set("fabric.runs", 0, "count")
	r.set("fabric.retries", 0, "count")
}
