package driver

import (
	"strings"
	"testing"

	"softbound/internal/meta"
	"softbound/internal/vm"
)

// loadPanicker is a baseline checker whose load hook panics: a crashing
// checker in the middle of a run.
type loadPanicker struct{}

func (loadPanicker) Name() string                   { return "load-panicker" }
func (loadPanicker) OnAlloc(uint64, uint64, string) {}
func (loadPanicker) OnFree(uint64)                  {}
func (loadPanicker) OnLoad(uint64, uint64) error    { panic("deliberate checker panic") }
func (loadPanicker) OnStore(uint64, uint64) error   { return nil }

// TestExecutePanicIsATrap: a panic raised while a module executes, before
// the VM exists (facility constructor) or inside the run (checker hook),
// comes back from ExecuteContext as a TrapPanic result on every engine,
// never as a dead caller.
func TestExecutePanicIsATrap(t *testing.T) {
	src := `int g[4];
int main() { g[1] = 7; return g[1] - 7; }
`
	cases := []struct {
		name  string
		mode  Mode
		setup func(*Config)
		value string
	}{
		{"facility", ModeFull, func(c *Config) {
			c.MetaFacility = func() (meta.Facility, error) { panic("deliberate facility panic") }
		}, "deliberate facility panic"},
		{"checker", ModeNone, func(c *Config) {
			c.Checker = loadPanicker{}
		}, "deliberate checker panic"},
	}
	for _, tc := range cases {
		for _, interp := range []vm.InterpKind{vm.InterpRef, vm.InterpFast, vm.InterpCompiled} {
			t.Run(tc.name+"/"+interp.String(), func(t *testing.T) {
				cfg := DefaultConfig(tc.mode)
				cfg.Interp = interp
				tc.setup(&cfg)
				mod, err := Compile([]Source{{Name: "main.c", Text: src}}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := Execute(mod, cfg)
				if res.TrapCode() != vm.TrapPanic {
					t.Fatalf("trap %q (err %v), want %q", res.TrapCode(), res.Err, vm.TrapPanic)
				}
				if res.Err != error(res.Trap) {
					t.Errorf("Err %v is not the returned Trap %v", res.Err, res.Trap)
				}
				if want := "recovered panic: " + tc.value; !strings.Contains(res.Err.Error(), want) {
					t.Errorf("error %q does not carry %q", res.Err, want)
				}
				if res.Stats == nil {
					t.Error("nil Stats on a recovered panic")
				}
				if !strings.Contains(string(res.Stack), "panic_test.go") {
					t.Errorf("stack does not reach the panicking frame:\n%s", res.Stack)
				}
			})
		}
	}
}
