// Package corpus defines the benchmark's inputs: the nine protection
// configurations of the paper's matrix, the suite's cells, the frozen
// serve program sets, and the answers every operation is checked
// against. The answers are produced once, on the reference engine, by
// cmd/freeze and committed under data/; the benchmark never derives an
// expected answer from the engine it measures.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// Config is one protection configuration: the uninstrumented baseline or
// one registered metadata scheme under one checking mode.
type Config struct {
	// Name is "baseline" or "<scheme>-<mode>", the BENCH.json vocabulary.
	Name   string
	Mode   driver.Mode
	Scheme meta.Scheme // zero for the baseline
}

// Configs returns the nine configurations of the paper's matrix: the
// baseline, then every registered scheme (sorted by name) in store-only
// and full mode.
func Configs() []Config {
	out := []Config{{Name: "baseline", Mode: driver.ModeNone}}
	for _, sc := range meta.Schemes() {
		for _, m := range []driver.Mode{driver.ModeStoreOnly, driver.ModeFull} {
			out = append(out, Config{Name: sc.Name + "-" + m.String(), Mode: m, Scheme: sc})
		}
	}
	return out
}

// DriverConfig is the driver configuration for c, built the way the
// bench harness and the execution service build it: the default config
// for the mode, with the facility constructed from the scheme itself.
func (c Config) DriverConfig() driver.Config {
	dcfg := driver.DefaultConfig(c.Mode)
	if c.Mode != driver.ModeNone {
		dcfg.Meta = c.Scheme.Kind
		if ctor := c.Scheme.New; ctor != nil {
			dcfg.MetaFacility = func() (meta.Facility, error) { return ctor(), nil }
		}
	}
	return dcfg
}

// NewFacility constructs the metadata facility a run under c uses, as
// driver.ExecuteContext does.
func (c Config) NewFacility() (meta.Facility, error) {
	dcfg := c.DriverConfig()
	if dcfg.MetaFacility != nil {
		return dcfg.MetaFacility()
	}
	return meta.New(dcfg.Meta)
}

// Wire returns the /run request's mode and scheme fields for c.
func (c Config) Wire() (mode, scheme string) {
	if c.Mode == driver.ModeNone {
		return "none", ""
	}
	return c.Mode.String(), c.Scheme.Name
}

// Cell is one program under one configuration.
type Cell struct {
	Program string
	Source  string
	Config  Config
}

// ID names the cell as "<program>/<config>".
func (c Cell) ID() string { return c.Program + "/" + c.Config.Name }

// Sources is the cell's translation unit list, named as the bench
// harness names it.
func (c Cell) Sources() []driver.Source {
	return []driver.Source{{Name: c.Program + ".c", Text: c.Source}}
}

// SuiteCells returns the paper's matrix: the 15 progs programs at their
// default scales, in Figure 1 order, each under the nine configurations.
func SuiteCells() []Cell {
	var out []Cell
	for _, b := range progs.All() {
		src := b.Source(0)
		for _, c := range Configs() {
			out = append(out, Cell{Program: b.Name, Source: src, Config: c})
		}
	}
	return out
}

// Answer is the observable outcome of one run: exit code, trap code,
// output (as its SHA-256) and the modeled instruction count.
type Answer struct {
	Exit     int64  `json:"exit"`
	Trap     string `json:"trap,omitempty"`
	Output   string `json:"output_sha256"`
	SimInsts uint64 `json:"sim_insts"`
}

// HashOutput is the output digest stored in an Answer.
func HashOutput(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// AnswerOf reads the answer off a driver result.
func AnswerOf(res *driver.Result) Answer {
	a := Answer{Exit: res.ExitCode, Trap: string(vm.CodeOf(res.Err)), Output: HashOutput(res.Output)}
	if res.Stats != nil {
		a.SimInsts = res.Stats.SimInsts
	}
	return a
}

// Diff describes how got differs from want ("" when they agree).
func (want Answer) Diff(got Answer) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("got exit=%d trap=%q output=%.12s sim_insts=%d, want exit=%d trap=%q output=%.12s sim_insts=%d",
		got.Exit, got.Trap, got.Output, got.SimInsts, want.Exit, want.Trap, want.Output, want.SimInsts)
}

// SuiteOracle is data/suite.json: the reference-engine answer of every
// suite cell.
type SuiteOracle struct {
	Why     string            `json:"why"`
	Engine  string            `json:"engine"`
	Answers map[string]Answer `json:"answers"` // by Cell.ID
}

// Program is one frozen serve program: a generated clean program or a
// planted-violation variant of one.
type Program struct {
	Name    string `json:"name"`
	GenSeed uint64 `json:"gen_seed"`
	// Plant describes the planted violation ("" for a clean variant).
	Plant  string `json:"plant,omitempty"`
	Source string `json:"source"`
	// Answers is the reference-engine answer under each configuration,
	// by Config.Name.
	Answers map[string]Answer `json:"answers"`
}

// ServeSet is data/serve-hot.json or data/serve-cold.json.
type ServeSet struct {
	Why      string    `json:"why"`
	Engine   string    `json:"engine"`
	Programs []Program `json:"programs"`
}

// Key is one serve request: a program under a configuration.
type Key struct {
	Program *Program
	Config  Config
}

// Cell is the key as an in-process suite-style cell.
func (k Key) Cell() Cell {
	return Cell{Program: k.Program.Name, Source: k.Program.Source, Config: k.Config}
}

// Want is the key's expected answer.
func (k Key) Want() Answer { return k.Program.Answers[k.Config.Name] }

// Keys expands the set into its program × configuration keys, program
// major.
func (s *ServeSet) Keys() []Key {
	var out []Key
	for i := range s.Programs {
		for _, c := range Configs() {
			out = append(out, Key{Program: &s.Programs[i], Config: c})
		}
	}
	return out
}

// ParseSuite decodes and validates a suite oracle against SuiteCells.
func ParseSuite(blob []byte) (*SuiteOracle, error) {
	var o SuiteOracle
	if err := json.Unmarshal(blob, &o); err != nil {
		return nil, fmt.Errorf("suite oracle: %w", err)
	}
	for _, c := range SuiteCells() {
		if _, ok := o.Answers[c.ID()]; !ok {
			return nil, fmt.Errorf("suite oracle: no answer for %s", c.ID())
		}
	}
	return &o, nil
}

// ParseServe decodes and validates a frozen serve set.
func ParseServe(blob []byte) (*ServeSet, error) {
	var s ServeSet
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("serve set: %w", err)
	}
	if len(s.Programs) == 0 {
		return nil, fmt.Errorf("serve set: no programs")
	}
	for _, k := range s.Keys() {
		if _, ok := k.Program.Answers[k.Config.Name]; !ok {
			return nil, fmt.Errorf("serve set: no answer for %s", k.Cell().ID())
		}
	}
	return &s, nil
}
