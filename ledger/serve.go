package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"softbound/internal/fabric"
	"softbound/internal/serve"
	"softbound/ledger/data"
	"softbound/ledger/internal/corpus"
	"softbound/ledger/internal/report"
)

// Fleet shape: one router and two single-worker backends (two workers,
// the CPU count the benchmark is sized for), driven by two closed-loop
// connections.
const (
	fleetBackends   = 2
	backendWorkers  = 1
	connections     = 2
	backendCacheCap = 128 // sbserve's default -cache
	// replayPrograms is how many programs of the cold set the traced run
	// replays in process (all nine configurations of each).
	replayPrograms = 16
	// coldWarmPrograms is how many hot-set programs (all nine
	// configurations each) warm a cold fleet up; they are not in the cold
	// set, so they never make a cold request hit.
	coldWarmPrograms = 2
	// hotTraffic is the length of serve-hot's request sequence before it
	// wraps, well beyond what a 60-second run sends.
	hotTraffic = 20000
)

// request is one prepared /run call.
type request struct {
	key  corpus.Key
	body []byte
}

func prepare(keys []corpus.Key) []request {
	out := make([]request, len(keys))
	for i, k := range keys {
		mode, scheme := k.Config.Wire()
		body, _ := json.Marshal(serve.Request{Source: k.Program.Source, Mode: mode, Scheme: scheme})
		out[i] = request{key: k, body: body}
	}
	return out
}

// sample is one completed request.
type sample struct {
	end              time.Time
	latency          time.Duration
	compile, execute time.Duration
	why              string // "" when the answer was correct
	op               string
}

// serve drives serve-hot or serve-cold through a real fleet.
func (r *run) serve() error {
	hot, err := corpus.ParseServe(data.ServeHot)
	if err != nil {
		return err
	}
	cold, err := corpus.ParseServe(data.ServeCold)
	if err != nil {
		return err
	}
	// traffic is walked in order and wraps around. serve-hot draws a
	// fresh seeded permutation of its keys per cycle, so the pairing of
	// concurrent requests does not repeat; serve-cold repeats one seeded
	// permutation, so a key comes back only after every other key.
	var traffic, warm []request
	var replay []corpus.Key
	if r.workload == "serve-hot" {
		keys := hot.Keys()
		reqs := prepare(keys)
		for len(traffic) < hotTraffic {
			for _, i := range r.shuffled(len(reqs)) {
				traffic = append(traffic, reqs[i])
			}
		}
		warm = reqs
		replay = keys
	} else {
		keys := cold.Keys()
		reqs := prepare(keys)
		for _, i := range r.shuffled(len(reqs)) {
			traffic = append(traffic, reqs[i])
		}
		warm = prepare(hot.Keys()[:coldWarmPrograms*len(corpus.Configs())])
		replay = keys[:replayPrograms*len(corpus.Configs())]
	}

	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return err
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: connections, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()

	// Each round spawns a fresh fleet (timed, with its warm-up, as
	// setup), then measures it for an equal share of the run. Pooling the
	// rounds averages out what differs between fleet incarnations.
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	var setups, rates, rss []float64
	var samples []sample
	var d statzDelta
	next := 0 // position in traffic; each round continues the walk
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if f, err = startFleet(r.binDir, r.workDir); err != nil {
			return err
		}
		for _, s := range r.load(client, f.base, warm, 0, len(warm), 0) {
			r.check("setup "+s.op, s.why)
		}
		setups = append(setups, time.Since(start).Seconds())

		before, err := f.snapshot(client)
		if err != nil {
			return err
		}
		loadStart := time.Now()
		round := r.load(client, f.base, traffic, next, 0, r.seconds/setupRounds)
		loadWall := time.Since(loadStart)
		after, err := f.snapshot(client)
		if err != nil {
			return err
		}
		mb, err := f.backendPeakRSS(after)
		if err != nil {
			return err
		}
		if err := f.stop(); err != nil {
			return err
		}
		f = nil
		next += len(round)
		samples = append(samples, round...)
		rates = append(rates, windowRates(round, loadStart, loadWall)...)
		rss = append(rss, mb)
		d.add(after.minus(before))
	}

	var lat, comp, exec, outside []float64
	for _, s := range samples {
		r.check(s.op, s.why)
		lat = append(lat, ms(s.latency))
		comp = append(comp, ms(s.compile))
		exec = append(exec, ms(s.execute))
		outside = append(outside, ms(s.latency-s.compile-s.execute))
	}
	fmt.Fprintf(os.Stderr, "ledger: %s: %d requests over %d connections in %d rounds of %v\n",
		r.workload, len(samples), connections, setupRounds, r.seconds/setupRounds)
	if len(samples) == 0 {
		return errors.New("no request completed")
	}
	r.guard(d)
	if !r.trace {
		r.set("setup_s", report.Median(setups), "s")
		r.set("ops_per_s", report.Median(rates), "1/s")
		r.set("p50_ms", report.Percentile(lat, 50), "ms")
		r.set("p90_ms", report.Percentile(lat, 90), "ms")
		r.set("rss_mb", report.Median(rss), "MB")
		return nil
	}

	r.set("op.compile_ms", report.Median(comp), "ms")
	r.set("op.execute_ms", report.Median(exec), "ms")
	r.set("op.outside_ms", report.Median(outside), "ms")
	lookups := d.cacheHits + d.cacheMisses
	r.set("cache.hit_frac", ratio(float64(d.cacheHits), float64(lookups)), "ratio")
	r.set("cache.lookups", float64(lookups), "count")
	r.set("spool.written", float64(d.spooled), "count")
	admitted, busiest := d.admissions()
	r.set("fabric.busiest_share", ratio(float64(busiest), float64(admitted)), "ratio")
	r.set("fabric.runs", float64(admitted), "count")
	r.set("fabric.retries", float64(d.retries), "count")

	byID := map[string]corpus.Answer{}
	cells := make([]corpus.Cell, len(replay))
	for i, k := range replay {
		cells[i] = k.Cell()
		byID[cells[i].ID()] = k.Want()
	}
	if _, err := r.traceLayers(cells, func(c corpus.Cell) corpus.Answer { return byID[c.ID()] }); err != nil {
		return err
	}
	r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	return nil
}

// rateWindows is how many equal windows a round's measurement is cut
// into. ops_per_s is the median of all windows' completion rates, so a
// short stall from outside the fleet moves one window, not the result.
const rateWindows = 5

// windowRates returns the rate of correct completions in each window of
// a round that began at start and lasted wall.
func windowRates(samples []sample, start time.Time, wall time.Duration) []float64 {
	width := wall / rateWindows
	rates := make([]float64, rateWindows)
	for _, s := range samples {
		if s.why == "" {
			rates[min(int(s.end.Sub(start)/width), rateWindows-1)]++
		}
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

// guard warns when the workload did not exercise the compile cache the
// way it is meant to: serve-hot should hit on nearly every request and
// serve-cold on none.
func (r *run) guard(d statzDelta) {
	hits := ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))
	switch {
	case r.workload == "serve-hot" && hits < 0.99:
		fmt.Fprintf(os.Stderr, "ledger: WARNING serve-hot compile-cache hit rate %.4f < 0.99\n", hits)
	case r.workload == "serve-cold" && d.cacheHits > 0:
		fmt.Fprintf(os.Stderr, "ledger: WARNING serve-cold hit the compile cache %d times\n", d.cacheHits)
	}
}

// load sends reqs through the router over closed-loop connections,
// which share one walk through reqs starting at from and wrapping
// around. With count > 0 it sends exactly count requests; otherwise it
// sends until the duration has passed.
func (r *run) load(client *http.Client, base string, reqs []request, from, count int, dur time.Duration) []sample {
	deadline := time.Now().Add(dur)
	var next atomic.Int64
	per := make([][]sample, connections)
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if count > 0 && i >= count {
					return
				}
				if count == 0 && !time.Now().Before(deadline) {
					return
				}
				per[w] = append(per[w], send(client, base, reqs[(from+i)%len(reqs)]))
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// send posts one request and checks the response against the key's
// frozen answer. A non-200 status, an undecodable body or a wrong
// answer all fail the request.
func send(client *http.Client, base string, req request) sample {
	s := sample{op: req.key.Cell().ID()}
	start := time.Now()
	resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(req.body))
	if err != nil {
		s.end = time.Now()
		s.latency = s.end.Sub(start)
		s.why = err.Error()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.latency = s.end.Sub(start)
	if err != nil {
		s.why = "read body: " + err.Error()
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.why = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
		return s
	}
	var out serve.Response
	if err := json.Unmarshal(body, &out); err != nil {
		s.why = "decode response: " + err.Error()
		return s
	}
	for _, p := range out.Phases {
		switch p.Phase {
		case "compile":
			s.compile += p.Duration()
		case "execute":
			s.execute += p.Duration()
		}
	}
	s.why = req.key.Want().Diff(responseAnswer(&out))
	return s
}

func responseAnswer(out *serve.Response) corpus.Answer {
	a := corpus.Answer{Exit: out.ExitCode, Trap: out.TrapCode, Output: corpus.HashOutput(out.Output)}
	if out.Stats != nil {
		a.SimInsts = out.Stats.SimInsts
	}
	return a
}

// fleet is a running sbrouter and the sbserve backends it supervises.
type fleet struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	logFile *os.File
	exited  chan struct{}
	pids    map[int]bool // every backend process seen in a router /statz
}

// startFleet launches sbrouter with its backends and waits until every
// backend is healthy. A router that exits during startup is retried on
// a fresh port, since the port it was given may have been taken in the
// meantime.
func startFleet(binDir, workDir string) (*fleet, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var f *fleet
		if f, err = startFleetOnce(binDir, workDir); !errors.Is(err, errRouterExited) {
			return f, err
		}
	}
	return nil, err
}

var errRouterExited = errors.New("sbrouter exited during startup")

func startFleetOnce(binDir, workDir string) (*fleet, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "fleet.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(binDir, "sbrouter"),
		"-addr", addr,
		"-backends", strconv.Itoa(fleetBackends),
		"-sbserve", filepath.Join(binDir, "sbserve"),
		"-backend-args", "-workers "+strconv.Itoa(backendWorkers),
		"-spool", filepath.Join(dir, "spool"))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group, so a router that dies early cannot leave its
	// backends behind: stop kills the whole group.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start sbrouter: %w", err)
	}
	f := &fleet{cmd: cmd, base: "http://" + addr, dir: dir, logFile: logFile, exited: make(chan struct{}), pids: map[int]bool{}}
	go func() { _ = cmd.Wait(); close(f.exited) }()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st fabric.RouterStatz
		if err := getJSON(client, f.base+"/statz", &st); err == nil && len(st.Backends) == fleetBackends {
			healthy := 0
			for _, b := range st.Backends {
				f.pids[b.PID] = true
				if b.State == fabric.StateHealthy {
					healthy++
				}
			}
			if healthy == fleetBackends {
				return f, nil
			}
		}
		select {
		case <-f.exited:
			f.stop()
			return nil, errRouterExited
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			tail, _ := os.ReadFile(logFile.Name())
			f.stop()
			return nil, fmt.Errorf("fleet not healthy within 60s; log ends: %s", tail[max(0, len(tail)-2000):])
		}
	}
}

// stop drains the router (which drains and reaps its backends), kills
// whatever is left of the process group, waits until every backend
// process seen is gone, and removes the fleet's spool and log.
func (f *fleet) stop() error {
	_ = f.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-f.exited:
	case <-time.After(30 * time.Second):
	}
	_ = syscall.Kill(-f.cmd.Process.Pid, syscall.SIGKILL)
	<-f.exited
	for pid := range f.pids {
		for i := 0; running(pid); i++ {
			if i == 1000 {
				return fmt.Errorf("backend pid %d did not exit", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	f.logFile.Close()
	return os.RemoveAll(f.dir)
}

// running reports whether pid is a live (not zombie) process.
func running(pid int) bool {
	blob, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return false
	}
	// The state follows the parenthesized command name.
	i := bytes.LastIndexByte(blob, ')')
	return i < 0 || i+2 >= len(blob) || blob[i+2] != 'Z'
}

// fleetStatz is one snapshot of the router's and every backend's /statz.
type fleetStatz struct {
	router   fabric.RouterStatz
	backends []serve.Statz
}

func (f *fleet) snapshot(client *http.Client) (*fleetStatz, error) {
	var s fleetStatz
	if err := getJSON(client, f.base+"/statz", &s.router); err != nil {
		return nil, err
	}
	for _, b := range s.router.Backends {
		f.pids[b.PID] = true
		var bs serve.Statz
		if err := getJSON(client, "http://"+b.Addr+"/statz", &bs); err != nil {
			return nil, fmt.Errorf("backend %s: %w", b.Name, err)
		}
		s.backends = append(s.backends, bs)
	}
	return &s, nil
}

// statzDelta is what the fleet counted between two snapshots.
type statzDelta struct {
	cacheHits, cacheMisses uint64
	spooled                uint64
	admitted               []uint64 // /run admissions per backend, in router order
	retries                uint64
}

func (a *fleetStatz) minus(b *fleetStatz) statzDelta {
	var d statzDelta
	for i := range a.backends {
		ac, bc := a.backends[i].Counters, b.backends[i].Counters
		d.cacheHits += ac["cache.hit"] - bc["cache.hit"]
		d.cacheMisses += ac["cache.miss"] - bc["cache.miss"]
		d.spooled += ac["spool.written"] - bc["spool.written"]
		d.admitted = append(d.admitted, ac["run.admitted"]-bc["run.admitted"])
	}
	d.retries = a.router.Counters["fabric.cross_shard_retry"] - b.router.Counters["fabric.cross_shard_retry"]
	return d
}

// add accumulates another round's delta; backends pair up by position,
// which the router keeps stable (backend names are fixed).
func (d *statzDelta) add(o statzDelta) {
	d.cacheHits += o.cacheHits
	d.cacheMisses += o.cacheMisses
	d.spooled += o.spooled
	d.retries += o.retries
	for i, n := range o.admitted {
		if i == len(d.admitted) {
			d.admitted = append(d.admitted, 0)
		}
		d.admitted[i] += n
	}
}

// admissions returns the total /run admissions and the busiest
// backend's.
func (d *statzDelta) admissions() (total, busiest uint64) {
	for _, n := range d.admitted {
		total += n
		busiest = max(busiest, n)
	}
	return total, busiest
}

// backendPeakRSS sums the backends' peak resident set sizes in MB.
func (f *fleet) backendPeakRSS(s *fleetStatz) (float64, error) {
	total := 0.0
	for _, b := range s.backends {
		mb, err := peakRSS(strconv.Itoa(b.PID))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// peakRSS reads VmHWM of /proc/<pid>/status in MB.
func peakRSS(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %s", pid)
}

// selfPeakRSS is the benchmark process's own peak RSS in MB.
func selfPeakRSS() float64 {
	mb, err := peakRSS("self")
	if err != nil {
		return 0
	}
	return mb
}

func getJSON(client *http.Client, url string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
