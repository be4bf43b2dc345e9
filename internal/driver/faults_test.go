package driver

import (
	"testing"

	"softbound/internal/faults"
	"softbound/internal/meta"
	"softbound/internal/progs"
	"softbound/internal/vm"
)

// TestIdleFaultInjectorIsTransparent: a fault-injected run whose plan
// delivers no fault must be indistinguishable from a run with no
// injector — same exit code, output, trap, and the complete modeled
// stats — on every scheme and engine. The fail-closed sweep relies on
// this: injected runs execute the production VM configuration, so any
// difference it observes comes from the faults alone. The dormant plan
// installs the metadata wrapper and the store and allocation hooks but
// schedules its first events far beyond the run.
func TestIdleFaultInjectorIsTransparent(t *testing.T) {
	const never = 1 << 40
	plans := map[string]faults.Plan{
		"empty":   {},
		"dormant": {Seed: 1, FlipEvery: never, DropEvery: never, CorruptEvery: never, StaleEvery: never},
	}
	b, ok := progs.Get("treeadd")
	if !ok {
		t.Fatal("treeadd not registered")
	}
	src := b.Source(suiteSmallScale[b.Name])
	for _, kind := range []meta.Kind{meta.KindShadowSpace, meta.KindHashTable,
		meta.KindShadowCETS, meta.KindHashTableCETS} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig(ModeFull)
			cfg.Meta = kind
			mod, err := Compile([]Source{{Name: b.Name + ".c", Text: src}}, cfg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, interp := range []vm.InterpKind{vm.InterpFast, vm.InterpRef, vm.InterpCompiled} {
				cfg.Interp = interp
				t.Run(interp.String(), func(t *testing.T) {
					plain := Execute(mod, cfg)
					if plain.Err != nil {
						t.Fatalf("run errored: %v", plain.Err)
					}
					want := describeWithStats(plain)
					for name, plan := range plans {
						injected := cfg
						injected.Faults = faults.NewInjector(plan)
						got := describeWithStats(Execute(mod, injected))
						if got != want {
							t.Errorf("%s plan diverges from no injector:\n got %s\nwant %s", name, got, want)
						}
						if st := injected.Faults.Stats(); st != (faults.Stats{}) {
							t.Errorf("%s plan delivered faults: %+v", name, st)
						}
					}
				})
			}
		})
	}
}
