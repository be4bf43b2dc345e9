// Package experiments regenerates the tables, Figure 1 and the case
// studies of the paper's evaluation (§6); Figure 2, the overhead matrix,
// is run by internal/bench. Each experiment returns structured results;
// the sbbench command and the module's benchmarks format them. Absolute
// numbers come from this reproduction's simulated substrate; the claims
// being reproduced are the *shapes*: who detects what (Tables 3, 4),
// which scheme is qualitatively stronger (Table 1), and how the pointer
// mix drives overhead (Figure 1).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"softbound/internal/attacks"
	"softbound/internal/baseline"
	"softbound/internal/bugbench"
	"softbound/internal/driver"
	"softbound/internal/metrics"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// ------------------------------------------------------------- Table 1

// SchemeRow is one row of the qualitative comparison (Table 1).
type SchemeRow struct {
	Scheme       string
	NoSrcChange  bool
	Complete     bool // detects sub-field overflows
	MemLayout    bool // memory layout unchanged
	ArbCasts     bool
	DynLinkLib   bool
	Demonstrated string // which experiment in this repo demonstrates it
}

// Table1 returns the scheme comparison. SoftBound's row is backed by the
// executable demonstrations in this repository; the comparison rows for
// schemes this repo implements (the object-table baseline) are measured,
// and the literature rows reproduce the paper's summary.
func Table1() []SchemeRow {
	return []SchemeRow{
		{Scheme: "SafeC", NoSrcChange: true, Complete: true, MemLayout: false, ArbCasts: true, DynLinkLib: false,
			Demonstrated: "paper §2.2 (fat pointers change layout)"},
		{Scheme: "JKRLDA (object-table)", NoSrcChange: true, Complete: false, MemLayout: true, ArbCasts: true, DynLinkLib: true,
			Demonstrated: "baseline.ObjectTable misses the §2.1 sub-object overflow"},
		{Scheme: "CCured Safe/Seq", NoSrcChange: false, Complete: true, MemLayout: false, ArbCasts: false, DynLinkLib: false,
			Demonstrated: "paper §2.2"},
		{Scheme: "CCured Wild", NoSrcChange: true, Complete: true, MemLayout: false, ArbCasts: true, DynLinkLib: false,
			Demonstrated: "paper §3.4"},
		{Scheme: "MSCC", NoSrcChange: true, Complete: false, MemLayout: true, ArbCasts: false, DynLinkLib: true,
			Demonstrated: "paper §2.2"},
		{Scheme: "SoftBound", NoSrcChange: true, Complete: true, MemLayout: true, ArbCasts: true, DynLinkLib: true,
			Demonstrated: "driver tests: sub-object, wild casts, separate compilation"},
	}
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []SchemeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: comparison of approaches\n")
	fmt.Fprintf(&b, "%-22s %-8s %-9s %-7s %-6s %-8s\n",
		"Scheme", "NoSrc", "Complete", "Layout", "Casts", "DynLink")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-8s %-9s %-7s %-6s %-8s\n",
			r.Scheme, yn(r.NoSrcChange), yn(r.Complete), yn(r.MemLayout),
			yn(r.ArbCasts), yn(r.DynLinkLib))
	}
	return b.String()
}

func yn(v bool) string {
	if v {
		return "Yes"
	}
	return "No"
}

// ------------------------------------------------------------- Table 3

// AttackResult is one Table 3 row.
type AttackResult struct {
	Attack attacks.Attack
	// Succeeded: the attack hijacked control when run unprotected.
	Succeeded bool
	// DetectedFull / DetectedStore: SoftBound stopped it.
	DetectedFull  bool
	DetectedStore bool
}

// Table3 runs the 18-attack Wilander suite under no checking, full
// checking, and store-only checking.
func Table3() ([]AttackResult, error) {
	var out []AttackResult
	for _, a := range attacks.Suite() {
		r := AttackResult{Attack: a}
		res, err := driver.RunSource(a.Source, driver.DefaultConfig(driver.ModeNone))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r.Succeeded = res.ExitCode == 66 || strings.Contains(res.Output, "ATTACK SUCCESSFUL")

		res, err = driver.RunSource(a.Source, driver.DefaultConfig(driver.ModeFull))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r.DetectedFull = res.Violation != nil

		res, err = driver.RunSource(a.Source, driver.DefaultConfig(driver.ModeStoreOnly))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r.DetectedStore = res.Violation != nil
		out = append(out, r)
	}
	return out, nil
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Wilander attack suite detection\n")
	fmt.Fprintf(&b, "%-34s %-9s %-9s %-6s %-6s\n",
		"Attack (technique/location)", "Target", "Exploits", "Full", "Store")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-9.9s %-9s %-6s %-6s\n",
			r.Attack.Name, r.Attack.Target, yn(r.Succeeded),
			yn(r.DetectedFull), yn(r.DetectedStore))
	}
	return b.String()
}

// ------------------------------------------------------------- Table 4

// BugResult is one Table 4 row.
type BugResult struct {
	Program  bugbench.Program
	Valgrind bool
	Mudflap  bool
	Store    bool
	Full     bool
}

// Table4 runs the BugBench suite under the two baseline tools and the
// two SoftBound modes.
func Table4() ([]BugResult, error) {
	var out []BugResult
	for _, p := range bugbench.Suite() {
		r := BugResult{Program: p}
		runTool := func(mode driver.Mode, ck vm.Checker) (bool, error) {
			cfg := driver.DefaultConfig(mode)
			cfg.Checker = ck
			res, err := driver.RunSource(p.Source, cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", p.Name, err)
			}
			return res.Detected(), nil
		}
		var err error
		if r.Valgrind, err = runTool(driver.ModeNone, baseline.NewValgrind()); err != nil {
			return nil, err
		}
		if r.Mudflap, err = runTool(driver.ModeNone, baseline.NewMudflap()); err != nil {
			return nil, err
		}
		if r.Store, err = runTool(driver.ModeStoreOnly, nil); err != nil {
			return nil, err
		}
		if r.Full, err = runTool(driver.ModeFull, nil); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []BugResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: BugBench detection efficacy\n")
	fmt.Fprintf(&b, "%-12s %-9s %-8s %-6s %-5s\n", "Benchmark", "Valgrind", "MudFlap", "Store", "Full")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-9s %-8s %-6s %-5s\n",
			r.Program.Name, yn(r.Valgrind), yn(r.Mudflap), yn(r.Store), yn(r.Full))
	}
	return b.String()
}

// ------------------------------------------------------------- Figure 1

// MixResult is one Figure 1 bar.
type MixResult struct {
	Bench   progs.Benchmark
	PtrFrac float64 // fraction of memory ops that move pointers
	Stats   *metrics.Stats
}

// Figure1 measures the pointer-memory-operation frequency for all 15
// benchmarks (uninstrumented, post-optimization), the quantity Figure 1
// plots.
func Figure1(scale int) ([]MixResult, error) {
	var out []MixResult
	for _, b := range progs.All() {
		res, err := driver.RunSource(b.Source(scale), driver.DefaultConfig(driver.ModeNone))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, res.Err)
		}
		out = append(out, MixResult{Bench: b, PtrFrac: res.Stats.PtrMemFrac(), Stats: res.Stats})
	}
	// The paper presents benchmarks sorted by this fraction.
	sort.SliceStable(out, func(i, j int) bool { return out[i].PtrFrac < out[j].PtrFrac })
	return out, nil
}

// FormatFigure1 renders Figure 1 as a text bar chart.
func FormatFigure1(rows []MixResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: frequency of pointer memory operations\n")
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.PtrFrac*60))
		fmt.Fprintf(&b, "%-11s %5.1f%% |%s\n", r.Bench.Name, 100*r.PtrFrac, bar)
	}
	return b.String()
}
