package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"time"

	"softbound/internal/cast"
	"softbound/internal/core"
	"softbound/internal/cparser"
	"softbound/internal/ctypes"
	"softbound/internal/driver"
	"softbound/internal/ir"
	"softbound/internal/irgen"
	"softbound/internal/libc"
	"softbound/internal/meta"
	"softbound/internal/opt"
	"softbound/internal/progs"
	"softbound/internal/sema"
	"softbound/internal/vm"
	"softbound/ledger/data"
	"softbound/ledger/internal/corpus"
	"softbound/ledger/internal/report"
)

// heapAllocs reads the cumulative Go heap allocation counter without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracer records spans around calls into the pipeline's packages. Spans
// stay in memory and go into the run record when the run ends.
type tracer struct {
	t0    time.Time
	spans []report.Span
	open  []int // ids of the enclosing spans, innermost last
}

// span times fn as one span named name, nested under the innermost open
// span, and returns its duration and heap allocation.
func (t *tracer) span(name, op string, fn func()) (time.Duration, uint64) {
	id := len(t.spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, report.Span{ID: id, Parent: parent, Name: name, Op: op})
	t.open = append(t.open, id)
	a0 := heapAllocs()
	start := time.Now()
	fn()
	end := time.Now()
	alloc := heapAllocs() - a0
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.Start, s.End, s.Alloc = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), alloc
	return end.Sub(start), alloc
}

// Stage span names. Each is one public call (or one call per
// translation unit) in driver.CompileWithStats or driver.Execute.
const (
	stParse      = "cparser.parse"
	stTypecheck  = "sema.typecheck"
	stLower      = "irgen.lower"
	stPreOpt     = "opt.pre"
	stInstrument = "core.instrument"
	stLink       = "ir.link"
	stPostOpt    = "opt.post"
	stFacility   = "meta.facility"
	stVMFresh    = "vm.new.fresh" // vm.New on a module not yet decoded
	stVMNew      = "vm.new"       // vm.New on the same module, decode cached
	stRun        = "vm.run"
)

var compileStages = []string{stParse, stTypecheck, stLower, stPreOpt, stInstrument, stLink, stPostOpt}

// ledger accumulates the per-layer totals of a traced replay.
type ledger struct {
	tr *tracer

	secs  map[string]float64 // stage → seconds over all replayed cells
	alloc map[string]uint64  // stage → heap bytes
	libc  float64            // seconds of the stages spent on libc.c alone

	facilityMB  map[string]float64 // scheme → MB of one constructor call
	checksRem   uint64
	irInsts     uint64
	insts       uint64
	cacheHits   uint64
	cacheMisses uint64
	metaLive    int64
	metaBytes   int64

	driverCompile float64 // seconds in the real driver calls
	driverExecute float64
	driverAlloc   uint64
	replayWall    float64 // seconds per replayed cell, replay only
	driverWall    float64

	opCompile, opExecute, opOutside []float64 // per driver call, ms
	cells                           int
}

func newLedger() *ledger {
	return &ledger{
		tr:         &tracer{t0: time.Now()},
		secs:       map[string]float64{},
		alloc:      map[string]uint64{},
		facilityMB: map[string]float64{},
	}
}

// timed runs fn as a span and books its time under stage; libcUnit
// additionally books it as libc compile time.
func (l *ledger) timed(stage, op string, libcUnit bool, fn func()) {
	d, a := l.tr.span(stage, op, fn)
	l.secs[stage] += d.Seconds()
	l.alloc[stage] += a
	if libcUnit {
		l.libc += d.Seconds()
	}
}

// cell runs one cell through the real driver and through the
// stage-by-stage replay, and checks that both reproduce the frozen
// answer and each other exactly.
func (l *ledger) cell(r *run, c corpus.Cell, want corpus.Answer) {
	op := c.ID()
	l.cells++
	cfg := c.Config.DriverConfig()

	// The real driver calls, untraced: the cross-check and the
	// reference the replay's overhead is measured against.
	a0 := heapAllocs()
	t0 := time.Now()
	mod, _, err := driver.CompileWithStats(c.Sources(), cfg)
	t1 := time.Now()
	if err != nil {
		r.check(op, "driver compile: "+err.Error())
		return
	}
	res := driver.Execute(mod, cfg)
	t2 := time.Now()
	got := corpus.AnswerOf(res)
	why := want.Diff(got)
	t3 := time.Now()
	l.driverAlloc += heapAllocs() - a0
	l.driverCompile += t1.Sub(t0).Seconds()
	l.driverExecute += t2.Sub(t1).Seconds()
	l.driverWall += t2.Sub(t0).Seconds()
	l.opCompile = append(l.opCompile, ms(t1.Sub(t0)))
	l.opExecute = append(l.opExecute, ms(t2.Sub(t1)))
	l.opOutside = append(l.opOutside, ms(t3.Sub(t2)))
	r.check(op, why)

	var replayed corpus.Answer
	var rerr error
	d, _ := l.tr.span("cell", op, func() { replayed, rerr = l.replay(c, op) })
	l.replayWall += d.Seconds()
	switch {
	case rerr != nil:
		r.check(op+" replay", rerr.Error())
	default:
		r.check(op+" replay", got.Diff(replayed))
	}
}

// replay repeats driver.CompileWithStats and driver.Execute for one cell
// call by call through the packages' public functions, one span per
// call.
func (l *ledger) replay(c corpus.Cell, op string) (corpus.Answer, error) {
	cfg := c.Config.DriverConfig()
	units := c.Sources()
	if cfg.WithLibc {
		units = append([]driver.Source{{Name: "libc.c", Text: libc.Unit()}}, units...)
	}

	var linked *ir.Module
	var counters opt.Result
	var cerr error
	l.tr.span("compile", op, func() {
		linked, counters, cerr = l.compile(units, cfg, op)
	})
	if cerr != nil {
		return corpus.Answer{}, cerr
	}
	l.checksRem += uint64(counters.RemovedChecks + counters.RemovedChecksGlobal)
	for _, f := range linked.Funcs {
		for _, b := range f.Blocks {
			l.irInsts += uint64(len(b.Insts))
		}
	}

	var ans corpus.Answer
	var eerr error
	l.tr.span("execute", op, func() { ans, eerr = l.execute(linked, c.Config, cfg, op) })
	return ans, eerr
}

// compile mirrors driver.CompileWithStats stage by stage. The returned
// opt.Result sums both optimizer runs.
func (l *ledger) compile(units []driver.Source, cfg driver.Config, op string) (*ir.Module, opt.Result, error) {
	// Unit 0 is libc.c when the config links libc; its stage time is
	// booked again as libc compile time.
	isLibc := func(i int) bool { return i == 0 && cfg.WithLibc }
	var total opt.Result
	var infos []*sema.Info
	var mods []*ir.Module
	for i, u := range units {
		var unit *cast.TranslationUnit
		var info *sema.Info
		var mod *ir.Module
		var err error
		l.timed(stParse, op, isLibc(i), func() { unit, err = cparser.Parse(u.Name, u.Text) })
		if err != nil {
			return nil, total, fmt.Errorf("parse %s: %w", u.Name, err)
		}
		l.timed(stTypecheck, op, isLibc(i), func() { info, err = sema.Analyze(unit, infos...) })
		if err != nil {
			return nil, total, fmt.Errorf("typecheck %s: %w", u.Name, err)
		}
		l.timed(stLower, op, isLibc(i), func() { mod, err = irgen.Generate(info) })
		if err != nil {
			return nil, total, fmt.Errorf("lower %s: %w", u.Name, err)
		}
		infos = append(infos, info)
		mods = append(mods, mod)
	}
	if cfg.Optimize {
		for i, m := range mods {
			l.timed(stPreOpt, op, isLibc(i), func() { addOpt(&total, opt.Optimize(m)) })
		}
	}
	if cfg.Mode != driver.ModeNone {
		sizer := buildSizer(infos, mods)
		opts := core.DefaultOptions(core.ModeFull)
		if cfg.Mode == driver.ModeStoreOnly {
			opts = core.DefaultOptions(core.ModeStoreOnly)
		}
		opts.ShrinkBounds = cfg.ShrinkBounds
		opts.ClearOnReturn = cfg.ClearOnReturn
		opts.CheckArith = cfg.CheckArith
		opts.Temporal = cfg.Meta.Temporal()
		for i, m := range mods {
			l.timed(stInstrument, op, isLibc(i), func() { core.Transform(m, sizer, opts) })
		}
	}
	linked := ir.NewModule("a.out")
	var err error
	l.timed(stLink, op, false, func() {
		for _, m := range mods {
			if err = linked.Link(m); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, total, fmt.Errorf("link: %w", err)
	}
	if cfg.Optimize {
		l.timed(stPostOpt, op, false, func() {
			addOpt(&total, opt.OptimizeWith(linked, opt.Options{Global: cfg.GlobalOpt}))
		})
	}
	return linked, total, nil
}

func addOpt(t *opt.Result, r opt.Result) {
	t.RemovedChecks += r.RemovedChecks
	t.RemovedChecksGlobal += r.RemovedChecksGlobal
}

// buildSizer resolves global object sizes across all units, as the
// driver does for separate compilation.
func buildSizer(infos []*sema.Info, mods []*ir.Module) core.GlobalSizer {
	sizes := make(map[string]int64)
	for _, m := range mods {
		for _, g := range m.Globals {
			sizes[g.Name] = g.Size
		}
	}
	for _, info := range infos {
		for _, g := range info.Globals {
			if _, ok := sizes[g.Name]; !ok && g.Type.Kind != ctypes.Func {
				sizes[g.Name] = g.Type.Size()
			}
		}
	}
	return func(name string) (int64, bool) {
		s, ok := sizes[name]
		return s, ok
	}
}

// execute mirrors driver.Execute: facility, vm.New, RunContext. vm.New
// runs twice, first on the freshly compiled module (which decodes it)
// and then on the decoded module, so decode time is the difference.
func (l *ledger) execute(mod *ir.Module, c corpus.Config, cfg driver.Config, op string) (corpus.Answer, error) {
	// booked says whether the facility counts toward meta.facility_s:
	// only the first of the two does, as the driver constructs one.
	newFacility := func(booked bool) (meta.Facility, error) {
		var fac meta.Facility
		var err error
		d, a := l.tr.span(stFacility, op, func() { fac, err = c.NewFacility() })
		if err != nil {
			return nil, err
		}
		if booked {
			l.secs[stFacility] += d.Seconds()
			l.facilityMB[fac.Name()] = float64(a) / (1 << 20)
		}
		return fac, nil
	}
	fac, err := newFacility(true)
	if err != nil {
		return corpus.Answer{}, err
	}
	var buf bytes.Buffer
	vcfg := vmConfig(cfg, fac, &buf, cfg.Interp)
	var machine *vm.VM
	l.timed(stVMFresh, op, false, func() { machine, err = vm.New(mod, vcfg) })
	if err != nil {
		return corpus.Answer{}, err
	}
	machine = nil // let the first VM's segments be collected before the second is built
	if vcfg.Meta, err = newFacility(false); err != nil {
		return corpus.Answer{}, err
	}
	l.timed(stVMNew, op, false, func() { machine, err = vm.New(mod, vcfg) })
	if err != nil {
		return corpus.Answer{}, err
	}
	var code int64
	var runErr error
	l.timed(stRun, op, false, func() { code, runErr = machine.RunContext(context.Background()) })
	st := machine.Stats()
	l.insts += st.Insts
	l.cacheHits += st.MetaCacheHits
	l.cacheMisses += st.MetaCacheMisses
	l.metaLive += st.MetaLive
	l.metaBytes += st.MetaBytes
	return corpus.Answer{Exit: code, Trap: string(vm.CodeOf(runErr)), Output: corpus.HashOutput(buf.String()), SimInsts: st.SimInsts}, nil
}

// vmConfig is the VM configuration driver.ExecuteContext builds for cfg
// (no guards, faults or cost model are set in the benchmark's configs).
func vmConfig(cfg driver.Config, fac meta.Facility, out io.Writer, eng vm.InterpKind) vm.Config {
	return vm.Config{Mode: vmMode(cfg.Mode), Meta: fac, Temporal: cfg.Meta.Temporal(), Stdout: out, Interp: eng}
}

func vmMode(m driver.Mode) vm.CheckMode {
	switch m {
	case driver.ModeStoreOnly:
		return vm.CheckStoreOnly
	case driver.ModeFull:
		return vm.CheckFull
	}
	return vm.CheckNone
}

// probeEngines times VM.RunContext for every suite program under the
// default configuration (shadowspace, full checking) on the fast and
// the compiled engine: the median of three runs each, every run checked
// against the suite oracle.
func (r *run) probeEngines(oracle *corpus.SuiteOracle) {
	var full corpus.Config
	for _, c := range corpus.Configs() {
		if c.Mode == driver.ModeFull && c.Scheme.Kind == meta.KindShadowSpace {
			full = c
		}
	}
	for _, b := range progs.All() {
		c := corpus.Cell{Program: b.Name, Source: b.Source(0), Config: full}
		want := oracle.Answers[c.ID()]
		cfg := c.Config.DriverConfig()
		mod, _, err := driver.CompileWithStats(c.Sources(), cfg)
		if err != nil {
			r.check(c.ID()+" probe", err.Error())
			continue
		}
		for _, eng := range []vm.InterpKind{vm.InterpFast, vm.InterpCompiled} {
			var times []float64
			for i := 0; i < 3; i++ {
				ans, d, err := runOnce(mod, c.Config, eng)
				why := want.Diff(ans)
				if err != nil {
					why = err.Error()
				}
				r.check(fmt.Sprintf("%s probe %s", c.ID(), eng), why)
				times = append(times, d.Seconds())
			}
			r.set(fmt.Sprintf("vm.run_s.%s.%s", eng, b.Name), report.Median(times), "s")
		}
	}
}

// runOnce builds a VM for mod on engine eng and times its RunContext.
func runOnce(mod *ir.Module, c corpus.Config, eng vm.InterpKind) (corpus.Answer, time.Duration, error) {
	fac, err := c.NewFacility()
	if err != nil {
		return corpus.Answer{}, 0, err
	}
	var buf bytes.Buffer
	machine, err := vm.New(mod, vmConfig(c.DriverConfig(), fac, &buf, eng))
	if err != nil {
		return corpus.Answer{}, 0, err
	}
	start := time.Now()
	code, runErr := machine.RunContext(context.Background())
	d := time.Since(start)
	ans := corpus.Answer{Exit: code, Trap: string(vm.CodeOf(runErr)), Output: corpus.HashOutput(buf.String()),
		SimInsts: machine.Stats().SimInsts}
	return ans, d, nil
}

// traceLayers replays cells stage by stage, probes the engines, and
// sets every per-layer metric the replay measures.
func (r *run) traceLayers(cells []corpus.Cell, want func(corpus.Cell) corpus.Answer) (*ledger, error) {
	oracle, err := corpus.ParseSuite(data.Suite)
	if err != nil {
		return nil, err
	}
	l := newLedger()
	for _, i := range r.shuffled(len(cells)) {
		l.cell(r, cells[i], want(cells[i]))
	}
	r.spans = l.tr.spans
	r.probeEngines(oracle)

	compile := 0.0
	for _, st := range compileStages {
		r.set(st+"_s", l.secs[st], "s")
		compile += l.secs[st]
	}
	r.set("libc.compile_s", l.libc, "s")
	r.set("libc.compile_share", ratio(l.libc, compile), "ratio")
	r.set("opt.checks_removed", float64(l.checksRem), "count")
	r.set("ir.insts", float64(l.irInsts), "count")

	r.set("meta.facility_s", l.secs[stFacility], "s")
	for _, sc := range meta.Schemes() {
		r.set("meta.facility_mb."+sc.Name, l.facilityMB[sc.Name], "MB")
	}
	probes := l.cacheHits + l.cacheMisses
	r.set("meta.lookaside_hit_frac", ratio(float64(l.cacheHits), float64(probes)), "ratio")
	r.set("meta.lookaside_probes", float64(probes), "count")
	r.set("meta.live_entries", float64(l.metaLive), "count")
	r.set("meta.table_mb", float64(l.metaBytes)/(1<<20), "MB")

	r.set("vm.new_s", l.secs[stVMNew], "s")
	r.set("vm.new_mb", float64(l.alloc[stVMNew])/(1<<20), "MB")
	r.set("vm.decode_s", l.secs[stVMFresh]-l.secs[stVMNew], "s")
	r.set("vm.run_s", l.secs[stRun], "s")
	r.set("vm.insts", float64(l.insts), "count")
	r.set("vm.ns_per_inst", ratio(l.secs[stRun]*1e9, float64(l.insts)), "ns")

	replayCompile := compile
	replayExecute := l.secs[stFacility] + l.secs[stVMFresh] + l.secs[stRun]
	r.set("driver.compile_s", l.driverCompile, "s")
	r.set("driver.execute_s", l.driverExecute, "s")
	r.set("driver.alloc_mb", float64(l.driverAlloc)/(1<<20), "MB")
	r.set("driver.compile_gap_s", replayCompile-l.driverCompile, "s")
	r.set("driver.execute_gap_s", replayExecute-l.driverExecute, "s")
	r.set("trace.overhead_s", l.replayWall-l.driverWall, "s")
	r.set("trace.cells", float64(l.cells), "count")
	fmt.Fprintf(os.Stderr, "ledger: traced %d cells: replay %.3fs vs driver %.3fs (tracing overhead %.3fs)\n",
		l.cells, l.replayWall, l.driverWall, l.replayWall-l.driverWall)
	return l, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
