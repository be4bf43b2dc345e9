package metrics

import "time"

// Report is the JSON-marshalable snapshot of a run's Stats. Field names
// form the stable BENCH.json vocabulary, so renames here are schema
// changes; derived quantities the evaluation plots are precomputed.
type Report struct {
	Insts       uint64 `json:"insts"`
	SimInsts    uint64 `json:"sim_insts"`
	Loads       uint64 `json:"loads"`
	Stores      uint64 `json:"stores"`
	PtrLoads    uint64 `json:"ptr_loads"`
	PtrStores   uint64 `json:"ptr_stores"`
	Checks      uint64 `json:"checks"`
	LoadChecks  uint64 `json:"load_checks"`
	StoreChecks uint64 `json:"store_checks"`
	CallChecks  uint64 `json:"call_checks"`
	// TemporalChecks counts CETS lock-and-key verifications (an additive
	// schema-v1 extension; zero/omitted under spatial-only schemes).
	TemporalChecks uint64 `json:"temporal_checks,omitempty"`
	MetaLoads      uint64 `json:"meta_loads"`
	MetaStores     uint64 `json:"meta_stores"`
	MetaClears     uint64 `json:"meta_clears"`
	Calls          uint64 `json:"calls"`
	Mallocs        uint64 `json:"mallocs"`
	Frees          uint64 `json:"frees"`
	HeapBytes      uint64 `json:"heap_bytes"`
	MaxHeap        uint64 `json:"max_heap"`
	MetaBytes      int64  `json:"meta_bytes"`
	// MetaLive is the facility's live entry count at exit (an additive
	// schema-v1 extension; the soak and session harnesses watch it for
	// unbounded metadata growth).
	MetaLive   int64  `json:"meta_live,omitempty"`
	CheckElims uint64 `json:"check_elims"`

	// Opt carries the compile-time optimizer pass counters (an additive
	// schema-v1 extension; see DESIGN.md "BENCH.json").
	Opt OptCounters `json:"opt"`

	// TrapCode classifies how the run ended ("" = clean exit, omitted);
	// values are vm.TrapCode strings. An additive schema-v1 extension
	// (DESIGN.md "Failure model").
	TrapCode string `json:"trap_code,omitempty"`

	PtrMemFrac float64 `json:"ptr_mem_frac"`
}

// Report converts the counters into their serializable form.
func (s *Stats) Report() Report {
	return Report{
		Insts:          s.Insts,
		SimInsts:       s.SimInsts,
		Loads:          s.Loads,
		Stores:         s.Stores,
		PtrLoads:       s.PtrLoads,
		PtrStores:      s.PtrStores,
		Checks:         s.Checks,
		LoadChecks:     s.LoadChecks,
		StoreChecks:    s.StoreChecks,
		CallChecks:     s.CallChecks,
		TemporalChecks: s.TemporalChecks,
		MetaLoads:      s.MetaLoads,
		MetaStores:     s.MetaStores,
		MetaClears:     s.MetaClears,
		Calls:          s.Calls,
		Mallocs:        s.Mallocs,
		Frees:          s.Frees,
		HeapBytes:      s.HeapBytes,
		MaxHeap:        s.MaxHeap,
		MetaBytes:      s.MetaBytes,
		MetaLive:       s.MetaLive,
		CheckElims:     s.CheckElims,

		Opt:        s.Opt,
		TrapCode:   s.TrapCode,
		PtrMemFrac: s.PtrMemFrac(),
	}
}

// PhaseTiming is one timed phase of a run (compile, execute, ...).
type PhaseTiming struct {
	Phase string `json:"phase"`
	Nanos int64  `json:"nanos"`
}

// Duration returns the phase's wall-clock time.
func (p PhaseTiming) Duration() time.Duration { return time.Duration(p.Nanos) }

// PhaseTimer accumulates per-phase wall-clock timings for one run. It is
// not safe for concurrent use; the benchmark harness gives every run its
// own timer.
type PhaseTimer struct {
	phases []PhaseTiming
}

// Start begins timing the named phase and returns the function that ends
// it. Typical use:
//
//	done := timer.Start("compile")
//	... work ...
//	done()
func (t *PhaseTimer) Start(phase string) func() {
	begin := time.Now()
	return func() {
		t.phases = append(t.phases, PhaseTiming{Phase: phase, Nanos: time.Since(begin).Nanoseconds()})
	}
}

// Time runs fn under the named phase.
func (t *PhaseTimer) Time(phase string, fn func()) {
	done := t.Start(phase)
	fn()
	done()
}

// Phases returns the recorded timings in completion order.
func (t *PhaseTimer) Phases() []PhaseTiming { return t.phases }

// Total sums all recorded phases.
func (t *PhaseTimer) Total() time.Duration {
	var sum time.Duration
	for _, p := range t.phases {
		sum += p.Duration()
	}
	return sum
}
