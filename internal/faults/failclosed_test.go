// Fail-closed integration suite (external test package: it drives the
// whole pipeline through internal/driver, which itself imports faults).
//
// The contract under test is the tentpole of the failure model: with full
// checking on, a run under injected faults either behaves identically to
// the fault-free reference or stops with a typed trap — it never silently
// diverges. With checking off, the same faults visibly corrupt at least
// some runs, demonstrating the fault classes are real hazards rather than
// no-ops the checked configuration trivially survives.
package faults_test

import (
	"fmt"
	"testing"

	"softbound/internal/attacks"
	"softbound/internal/driver"
	"softbound/internal/faults"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// failClosedPrograms is the benchmark subset the suite sweeps: pointer-
// dense Olden programs plus compress (dense array traffic), at a small
// scale so the full matrix stays fast.
var failClosedPrograms = []string{"treeadd", "health", "mst", "compress"}

const failClosedScale = 3

// plans covers every fault class, alone, each under two seeds, plus one
// combined plan. Periods are tight so small-scale runs still see faults.
func plans() []faults.Plan {
	var out []faults.Plan
	for _, seed := range []uint64{1, 99} {
		out = append(out,
			faults.Plan{Seed: seed, FlipEvery: 50},
			faults.Plan{Seed: seed, DropEvery: 40},
			faults.Plan{Seed: seed, CorruptEvery: 40},
			faults.Plan{Seed: seed, OOMAt: 2 + seed%5},
		)
	}
	out = append(out, faults.Plan{Seed: 7, FlipEvery: 80, DropEvery: 60, CorruptEvery: 70, OOMAt: 6})
	return out
}

// runProg executes one benchmark under the given mode/scheme/injector.
func runProg(t *testing.T, src string, mode driver.Mode, scheme meta.Scheme, inj *faults.Injector) *driver.Result {
	t.Helper()
	cfg := driver.DefaultConfig(mode)
	if mode != driver.ModeNone {
		ctor := scheme.New
		cfg.Meta = scheme.Kind // the Kind drives temporal lowering for CETS schemes
		cfg.MetaFacility = func() (meta.Facility, error) { return ctor(), nil }
	}
	cfg.Faults = inj
	res, err := driver.RunSource(src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// failClosedVerdict judges one faulted run against its fault-free
// reference under the checked-build contract. detected reports a typed
// trap; a non-nil error is a breach. A recovered Go panic (TrapPanic) is
// a simulator crash, never a detection: the driver contains it so that a
// service survives, but the contract is broken all the same.
func failClosedVerdict(ref, got *driver.Result, inj *faults.Injector) (detected bool, err error) {
	if vm.CodeOf(got.Err) == vm.TrapPanic {
		return false, fmt.Errorf("simulator panic under %s: %v", inj.Plan(), got.Err)
	}
	if inj.Stats().Total() == 0 {
		// The schedule never fired (short run); the run must then be
		// identical to the reference.
		if got.Err != nil || got.Output != ref.Output || got.ExitCode != ref.ExitCode {
			return false, fmt.Errorf("no faults delivered yet run diverged (exit %d vs %d, err %v)",
				got.ExitCode, ref.ExitCode, got.Err)
		}
		return false, nil
	}
	if got.Err != nil {
		// Detected: the error must carry a machine-readable trap code.
		if vm.CodeOf(got.Err) == "" {
			return false, fmt.Errorf("error without trap classification: %v", got.Err)
		}
		return true, nil
	}
	// Not detected: only acceptable if the run is indistinguishable from
	// the reference (the faults landed somewhere truly dead — e.g. a
	// dropped entry for a pointer never dereferenced again).
	if got.Output != ref.Output || got.ExitCode != ref.ExitCode {
		return false, fmt.Errorf("SILENT DIVERGENCE under %s: exit %d vs %d, faults %+v",
			inj.Plan(), got.ExitCode, ref.ExitCode, inj.Stats())
	}
	return false, nil
}

// TestFailClosedPrograms sweeps programs × schemes × plans with full
// checking: every faulted run must detect-or-match, never silently
// diverge. It also requires a minimum number of detections across the
// sweep — the whole suite is deterministic (seeded injector, deterministic
// VM), and without this floor a regression that quietly disables checking
// would pass every per-run assertion by "matching" trivially.
func TestFailClosedPrograms(t *testing.T) {
	schemes := []string{"hashtable", "shadowspace"}
	var detections int
	for _, name := range failClosedPrograms {
		b, ok := progs.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		src := b.Source(failClosedScale)
		for _, schemeName := range schemes {
			scheme, ok := meta.SchemeByName(schemeName)
			if !ok {
				t.Fatalf("unknown scheme %q", schemeName)
			}
			ref := runProg(t, src, driver.ModeFull, scheme, nil)
			if ref.Err != nil {
				t.Fatalf("%s/%s: fault-free reference failed: %v", name, schemeName, ref.Err)
			}
			for pi, plan := range plans() {
				label := fmt.Sprintf("%s/%s/plan%d(%s)", name, schemeName, pi, plan)
				inj := faults.NewInjector(plan)
				got := runProg(t, src, driver.ModeFull, scheme, inj)
				detected, err := failClosedVerdict(ref, got, inj)
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
				if detected {
					detections++
				}
			}
		}
	}
	// Empirically ~40 of 72 cells detect; 20 leaves slack for benign
	// schedule shifts while still catching a neutered checker.
	if detections < 20 {
		t.Errorf("only %d detections across the sweep; checking looks ineffective", detections)
	}
}

// TestFailClosedAttacks repeats the sweep over a slice of the attack
// suite: programs that are already out to corrupt memory must stay
// detected (or identical) under injected faults too.
func TestFailClosedAttacks(t *testing.T) {
	scheme, _ := meta.SchemeByName("shadowspace")
	suite := attacks.Suite()
	if len(suite) > 4 {
		suite = suite[:4]
	}
	for _, a := range suite {
		ref := runProg(t, a.Source, driver.ModeFull, scheme, nil)
		for pi, plan := range plans() {
			label := fmt.Sprintf("attack/%s/plan%d", a.Name, pi)
			inj := faults.NewInjector(plan)
			got := runProg(t, a.Source, driver.ModeFull, scheme, inj)
			// For attacks the reference itself usually traps; the faulted
			// run must also end in a classified state or match exactly. A
			// recovered simulator panic is a crash, not a classified state.
			if got.Err != nil {
				if code := vm.CodeOf(got.Err); code == "" || code == vm.TrapPanic {
					t.Errorf("%s: unclassified error or simulator panic: %v", label, got.Err)
				}
				continue
			}
			if inj.Stats().Total() == 0 {
				continue
			}
			if ref.Err == nil && (got.Output != ref.Output || got.ExitCode != ref.ExitCode) {
				t.Errorf("%s: silent divergence under %s", label, plan)
			}
			if ref.Err != nil {
				// The reference trapped but the faulted run sailed through:
				// an injected fault must not mask a real violation...
				// unless it legitimately stopped the program earlier
				// (e.g. forced OOM starved the attack of its buffer). A
				// clean exit with matching output is the only pass.
				if got.ExitCode != ref.ExitCode && plan.OOMAt == 0 {
					t.Errorf("%s: faults masked a violation: ref %v, got clean exit %d",
						label, ref.Err, got.ExitCode)
				}
			}
		}
	}
}

// TestStaleKeyFaultsFailClosed (ISSUE 7): StaleEvery perturbs the key of
// metadata lookups that carry a temporal identity. Under the CETS schemes
// the perturbed key no longer matches its lock, so every affected
// dereference must fail closed as a typed temporal violation — or the run
// must be indistinguishable from the fault-free reference (the damaged
// entry was never checked again). A stale key can never widen access or
// silently change program output.
func TestStaleKeyFaultsFailClosed(t *testing.T) {
	var detections int
	for _, name := range failClosedPrograms {
		b, ok := progs.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		src := b.Source(failClosedScale)
		for _, schemeName := range []string{"hashtable-cets", "shadow-cets"} {
			scheme, ok := meta.SchemeByName(schemeName)
			if !ok {
				t.Fatalf("unknown scheme %q", schemeName)
			}
			ref := runProg(t, src, driver.ModeFull, scheme, nil)
			if ref.Err != nil {
				t.Fatalf("%s/%s: fault-free reference failed: %v", name, schemeName, ref.Err)
			}
			for _, seed := range []uint64{1, 99} {
				label := fmt.Sprintf("%s/%s/seed%d", name, schemeName, seed)
				inj := faults.NewInjector(faults.Plan{Seed: seed, StaleEvery: 40})
				got := runProg(t, src, driver.ModeFull, scheme, inj)
				if got.Err != nil {
					if code := vm.CodeOf(got.Err); code != vm.TrapTemporal {
						t.Errorf("%s: stale key surfaced as %q, want %q (%v)",
							label, code, vm.TrapTemporal, got.Err)
					}
					detections++
					continue
				}
				if inj.Stats().Stales == 0 {
					continue
				}
				if got.Output != ref.Output || got.ExitCode != ref.ExitCode {
					t.Errorf("%s: SILENT DIVERGENCE under stale keys: exit %d vs %d, faults %+v",
						label, got.ExitCode, ref.ExitCode, inj.Stats())
				}
			}
		}
	}
	if detections == 0 {
		t.Error("no stale-key fault was ever detected; the class looks like a no-op")
	}

	// Control arm: spatial-only entries carry no keys, so the stale
	// schedule only defers — the class is a no-op there by construction.
	spatial, _ := meta.SchemeByName("shadowspace")
	b, _ := progs.Get("treeadd")
	inj := faults.NewInjector(faults.Plan{Seed: 1, StaleEvery: 40})
	res := runProg(t, b.Source(failClosedScale), driver.ModeFull, spatial, inj)
	if res.Err != nil {
		t.Errorf("spatial-only run failed under stale plan: %v", res.Err)
	}
	if inj.Stats().Stales != 0 {
		t.Errorf("stale faults delivered to a keyless scheme: %+v", inj.Stats())
	}
}

// TestUncheckedCorruption is the control arm: with checking off, the same
// fault plans must produce at least one visibly corrupted or crashed run
// across the sweep — otherwise the injector is a no-op and the fail-closed
// results above are vacuous.
func TestUncheckedCorruption(t *testing.T) {
	var divergences int
	scheme := meta.Scheme{} // unused in ModeNone
	for _, name := range failClosedPrograms {
		b, _ := progs.Get(name)
		src := b.Source(failClosedScale)
		ref := runProg(t, src, driver.ModeNone, scheme, nil)
		if ref.Err != nil {
			t.Fatalf("%s: unchecked reference failed: %v", name, ref.Err)
		}
		for _, plan := range plans() {
			if plan.DropEvery != 0 || plan.CorruptEvery != 0 {
				// Metadata faults need metadata; skip plans that are
				// no-ops without instrumentation.
				if plan.FlipEvery == 0 && plan.OOMAt == 0 {
					continue
				}
			}
			inj := faults.NewInjector(plan)
			got := runProg(t, src, driver.ModeNone, scheme, inj)
			if vm.CodeOf(got.Err) == vm.TrapPanic {
				t.Errorf("%s under %s: simulator panic: %v", name, plan, got.Err)
			}
			if inj.Stats().Total() == 0 {
				continue
			}
			if got.Err != nil || got.Output != ref.Output || got.ExitCode != ref.ExitCode {
				divergences++
			}
		}
	}
	if divergences == 0 {
		t.Fatal("unchecked runs never diverged under faults: injector is a no-op")
	}
}

// lookupPanicker is a metadata facility whose Lookup crashes: a simulator
// bug that corrupted metadata could reach under a fault plan.
type lookupPanicker struct{ meta.Facility }

func (lookupPanicker) Lookup(uint64) meta.Entry { panic("deliberate lookup panic") }

// TestSimulatorPanicIsNotADetection: the driver turns a panic inside a run
// into a TrapPanic result, which carries a trap code like any detection.
// The fail-closed verdict must still count it as a breach, so a crashing
// facility fails the sweep instead of padding its detection floor.
func TestSimulatorPanicIsNotADetection(t *testing.T) {
	scheme, _ := meta.SchemeByName("shadowspace")
	ref := runProg(t, failClosedSource(t, "treeadd"), driver.ModeFull, scheme, nil)
	crashing := meta.Scheme{Name: "lookup-panicker", Kind: scheme.Kind,
		New: func() meta.Facility { return lookupPanicker{scheme.New()} }}
	inj := faults.NewInjector(faults.Plan{Seed: 1, FlipEvery: 50})
	got := runProg(t, failClosedSource(t, "treeadd"), driver.ModeFull, crashing, inj)
	if vm.CodeOf(got.Err) != vm.TrapPanic {
		t.Fatalf("crashing facility gave trap %q (%v), want %q", vm.CodeOf(got.Err), got.Err, vm.TrapPanic)
	}
	if detected, err := failClosedVerdict(ref, got, inj); detected || err == nil {
		t.Errorf("simulator panic judged detected=%v err=%v; want a breach", detected, err)
	}
}

// failClosedSource returns the named benchmark's source at the sweep scale.
func failClosedSource(t *testing.T, name string) string {
	t.Helper()
	b, ok := progs.Get(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b.Source(failClosedScale)
}
