// Command freeze writes the benchmark's frozen inputs and their oracle
// into ledger/data: the reference-engine answer of every suite cell, and
// the serve program sets (generated by internal/gen from the seeds
// recorded in the files, planted variants included) with the
// reference-engine answer of each program under each configuration.
//
// Run it from the ledger directory after a change that is meant to alter
// program behaviour, and review the diff:
//
//	go run ./cmd/freeze -out data
//
// The benchmark reads only the committed files, so the serve traffic does
// not shift when the generator changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"softbound/internal/driver"
	"softbound/internal/gen"
	"softbound/internal/vm"
	"softbound/ledger/internal/corpus"
)

// set describes one serve program set: how many programs, which of them
// carry a planted violation, and the generator seed of the first one.
type set struct {
	file     string
	why      string
	programs int
	planted  int // the last `planted` programs are planted variants
	seedBase uint64
	prefix   string
}

var sets = []set{
	{
		file: "serve-hot.json",
		why: "16 generated programs (4 planted) x 9 configs = 144 keys: small enough that each backend's " +
			"128-entry compile cache holds its share, so after the warm-up pass every request is a cache hit " +
			"and costs only per-run setup, the run itself, HTTP and the router hop",
		programs: 16, planted: 4, seedBase: 1000, prefix: "hot",
	},
	{
		file: "serve-cold.json",
		why: "64 generated programs (16 planted) x 9 configs = 576 keys, more than twice the fleet's 2 x 128 " +
			"compile-cache entries, so a request cycle never finds its key cached and every request pays the " +
			"whole compile pipeline, libc prelude included",
		programs: 64, planted: 16, seedBase: 2000, prefix: "cold",
	},
}

const suiteWhy = "The paper's Figure 2 matrix: the 15 progs programs at their default scales, each under the " +
	"baseline and 4 metadata schemes x 2 checking modes. Run-bound programs (ijpeg, hmmer, treeadd, li) " +
	"show engine and metadata-lookup changes; setup-bound ones (mst, tsp, em3d, go) show VM and facility " +
	"setup changes; pointer-heavy Olden programs stress metadata lookups that scalar SPEC programs barely touch."

func main() {
	out := flag.String("out", "data", "directory to write the frozen files into")
	flag.Parse()
	if err := freeze(*out, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintln(os.Stderr, "freeze:", err)
		os.Exit(1)
	}
}

func freeze(dir string, workers int) error {
	cells := corpus.SuiteCells()
	answers, err := answerAll(cells, workers)
	if err != nil {
		return err
	}
	suite := corpus.SuiteOracle{Why: suiteWhy, Engine: vm.InterpRef.String(), Answers: map[string]corpus.Answer{}}
	for i, c := range cells {
		suite.Answers[c.ID()] = answers[i]
	}
	if err := writeJSON(filepath.Join(dir, "suite.json"), suite); err != nil {
		return err
	}
	for _, s := range sets {
		ss := corpus.ServeSet{Why: s.why, Engine: vm.InterpRef.String()}
		for i := 0; i < s.programs; i++ {
			seed := s.seedBase + uint64(i)
			p := gen.Generate(seed)
			prog := corpus.Program{Name: fmt.Sprintf("%s%02d", s.prefix, i), GenSeed: seed, Source: p.Source()}
			if i >= s.programs-s.planted {
				plants := p.Plants()
				pl := plants[int(seed%uint64(len(plants)))]
				prog.Name += "p"
				prog.Plant = fmt.Sprintf("%s store=%v chunk=%d index=%d: %s", pl.Kind, pl.Store, pl.Chunk, pl.Index, pl.Site)
				prog.Source = p.PlantedSource(pl)
			}
			ss.Programs = append(ss.Programs, prog)
		}
		keys := ss.Keys()
		kcells := make([]corpus.Cell, len(keys))
		for i, k := range keys {
			kcells[i] = k.Cell()
		}
		answers, err := answerAll(kcells, workers)
		if err != nil {
			return err
		}
		traps := 0
		for i, k := range keys {
			if k.Program.Answers == nil {
				k.Program.Answers = map[string]corpus.Answer{}
			}
			k.Program.Answers[k.Config.Name] = answers[i]
			if answers[i].Trap != "" {
				traps++
			}
		}
		fmt.Fprintf(os.Stderr, "freeze: %s: %d keys, %d trap\n", s.file, len(keys), traps)
		if err := writeJSON(filepath.Join(dir, s.file), ss); err != nil {
			return err
		}
	}
	return nil
}

// answerAll runs every cell on the reference engine.
func answerAll(cells []corpus.Cell, workers int) ([]corpus.Answer, error) {
	out := make([]corpus.Answer, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = answer(cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func answer(c corpus.Cell) (corpus.Answer, error) {
	cfg := c.Config.DriverConfig()
	cfg.Interp = vm.InterpRef
	mod, _, err := driver.CompileWithStats(c.Sources(), cfg)
	if err != nil {
		return corpus.Answer{}, fmt.Errorf("%s: %w", c.ID(), err)
	}
	res := driver.Execute(mod, cfg)
	if code := vm.CodeOf(res.Err); code != "" && !res.Detected() {
		return corpus.Answer{}, fmt.Errorf("%s: trap %s is not a detection: %v", c.ID(), code, res.Err)
	}
	return corpus.AnswerOf(res), nil
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
