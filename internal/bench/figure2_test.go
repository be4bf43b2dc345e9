package bench

import (
	"strings"
	"testing"
)

// TestFigure2Shape asserts the paper's Figure 2 claims (the shapes, not
// absolute numbers) on the full matrix at the reduced test scale.
func TestFigure2Shape(t *testing.T) {
	rep, err := Execute(Config{Workers: 2, Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	avg := make(map[string]float64)
	for _, s := range rep.Summary {
		avg[s.Config] = s.MeanOverheadSim
	}
	// The paper's ordering: hash-full > shadow-full > hash-store >
	// shadow-store; all positive.
	hf, sf := avg["hashtable-full"], avg["shadowspace-full"]
	hs, ss := avg["hashtable-store-only"], avg["shadowspace-store-only"]
	if !(hf >= sf && sf > ss && hf >= hs && hs >= ss) {
		t.Errorf("overhead ordering violated: hf=%.2f sf=%.2f hs=%.2f ss=%.2f", hf, sf, hs, ss)
	}
	if ss <= 0 || hf <= 0 {
		t.Error("non-positive overheads")
	}
	// Pointer-heavy benchmarks must separate hash from shadow (the
	// metadata encoding matters only where metadata traffic exists).
	overhead := make(map[string]float64)
	for _, r := range rep.Runs {
		if r.OverheadSim != nil {
			overhead[r.Program+"/"+r.Config] = *r.OverheadSim
		}
	}
	dPtr := overhead["treeadd/hashtable-full"] - overhead["treeadd/shadowspace-full"]
	dScalar := overhead["lbm/hashtable-full"] - overhead["lbm/shadowspace-full"]
	if dPtr <= dScalar {
		t.Errorf("hash-vs-shadow gap should grow with pointer intensity: treeadd %.3f vs lbm %.3f",
			dPtr, dScalar)
	}
	if s := Format(rep); !strings.Contains(s, "average") {
		t.Error("format broken")
	}
}
