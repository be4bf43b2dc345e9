package meta

import (
	"math/rand"
	"testing"
)

// Regression: Update/Lookup used the raw byte address as the key while
// Clear aligned it, so metadata written through an unaligned address
// survived Clear. All three paths must key on the double-word address.
func TestUnalignedUpdateThenClear(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x2003, e) // unaligned store address
		if got := f.Lookup(0x2000); got != e {
			t.Errorf("%s: aligned lookup after unaligned update = %+v", f.Name(), got)
		}
		if got := f.Lookup(0x2007); got != e {
			t.Errorf("%s: unaligned lookup after unaligned update = %+v", f.Name(), got)
		}
		f.Clear(0x2000, 8)
		if got := f.Lookup(0x2003); got != (Entry{}) {
			t.Errorf("%s: unaligned metadata survived aligned Clear: %+v", f.Name(), got)
		}

		// And the converse: aligned update, clear through an unaligned
		// address covering the same double-word.
		f.Update(0x3000, e)
		f.Clear(0x3005, 3)
		if got := f.Lookup(0x3000); got != (Entry{}) {
			t.Errorf("%s: aligned metadata survived unaligned Clear: %+v", f.Name(), got)
		}
	}
}

// Regression: grow re-inserted cleared (tombstone) entries, so dead slots
// were copied forever and the load factor never recovered.
func TestGrowDropsClearedEntries(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		h := MustHashTable(64, temporal)
		live := Entry{Base: 0x9000, Bound: 0x9100}
		for i := uint64(0); i < 32; i++ {
			h.Update(i*8, Entry{Base: i + 1, Bound: i + 2})
		}
		for i := uint64(1); i < 32; i++ {
			h.Clear(i*8, 8)
		}
		h.Update(0x9000, live) // 2 live entries, 31 tombstones
		h.grow()
		if h.used != 2 {
			t.Fatalf("%s: grow kept %d entries, want 2 (tombstones re-inserted)", h.Name(), h.used)
		}
		if got := h.Lookup(0); got != (Entry{Base: 1, Bound: 2}) {
			t.Errorf("%s: live entry 0 lost across grow: %+v", h.Name(), got)
		}
		if got := h.Lookup(0x9000); got != live {
			t.Errorf("%s: live entry 0x9000 lost across grow: %+v", h.Name(), got)
		}
		if got := h.Lookup(8); got != (Entry{}) {
			t.Errorf("%s: cleared entry resurrected across grow: %+v", h.Name(), got)
		}
	}
}

// Update/Clear churn over distinct addresses must not retain dead entries
// across growth: after heavy churn the table's live count stays tiny.
func TestChurnLoadFactorRecovers(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		h := MustHashTable(16, temporal)
		for i := uint64(0); i < 10000; i++ {
			h.Update(i*8, Entry{Base: 1, Bound: 2, Key: 3, Lock: 4})
			h.Clear(i*8, 8)
		}
		h.grow()
		if h.used != 0 {
			t.Fatalf("%s: after churn and rehash, %d dead entries retained", h.Name(), h.used)
		}
	}
}

// Regression: Clear and CopyRange of size 0 touched one slot when the
// address was unaligned.
func TestZeroSizeOpsAreNoOps(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x4000, e)
		f.Clear(0x4001, 0)
		if got := f.Lookup(0x4000); got != e {
			t.Errorf("%s: zero-size Clear removed metadata: %+v", f.Name(), got)
		}
		f.Update(0x5000, Entry{Base: 7, Bound: 8})
		f.CopyRange(0x4001, 0x5000, 0)
		if got := f.Lookup(0x4000); got != e {
			t.Errorf("%s: zero-size CopyRange touched dst: %+v", f.Name(), got)
		}
	}
}

// Regression: CopyRange copied forwards unconditionally, so an overlapping
// dst > src copy propagated already-overwritten slots. Both directions must
// follow memmove semantics in both schemes.
func TestCopyRangeOverlap(t *testing.T) {
	entry := func(i uint64) Entry { return Entry{Base: 0x100 * (i + 1), Bound: 0x100*(i+1) + 8} }
	for _, f := range facilities() {
		// dst > src overlap: shift 3 slots up by one slot.
		for i := uint64(0); i < 3; i++ {
			f.Update(0x1000+i*8, entry(i))
		}
		f.CopyRange(0x1008, 0x1000, 24)
		for i := uint64(0); i < 3; i++ {
			if got := f.Lookup(0x1008 + i*8); got != entry(i) {
				t.Errorf("%s: upward overlap slot %d = %+v, want %+v", f.Name(), i, got, entry(i))
			}
		}

		// dst < src overlap: shift 3 slots down by one slot.
		for i := uint64(0); i < 3; i++ {
			f.Update(0x2008+i*8, entry(i+10))
		}
		f.CopyRange(0x2000, 0x2008, 24)
		for i := uint64(0); i < 3; i++ {
			if got := f.Lookup(0x2000 + i*8); got != entry(i+10) {
				t.Errorf("%s: downward overlap slot %d = %+v, want %+v", f.Name(), i, got, entry(i+10))
			}
		}
	}
}

// TestFacilitiesAgreeUnaligned differentially fuzzes both organizations
// of each entry layout with byte-granularity (unaligned) addresses and
// overlapping CopyRanges — the op mix the fixed bugs were hiding in — and
// asserts the two stay observationally identical.
func TestFacilitiesAgreeUnaligned(t *testing.T) {
	const window = 1 << 12 // byte window the ops land in
	for _, pair := range schemePairs(t) {
		rng := rand.New(rand.NewSource(1))
		h, s := newSmall(pair[0].Kind), newSmall(pair[1].Kind)
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(window))
			switch rng.Intn(4) {
			case 0:
				e := Entry{Base: uint64(rng.Intn(1 << 16)), Bound: uint64(rng.Intn(1 << 16)),
					Key: uint64(rng.Intn(4)), Lock: uint64(rng.Intn(4))}
				h.Update(addr, e)
				s.Update(addr, e)
			case 1:
				if h.Lookup(addr) != s.Lookup(addr) {
					t.Fatalf("%s vs %s: op %d: lookup(0x%x) disagrees: %+v vs %+v",
						h.Name(), s.Name(), i, addr, h.Lookup(addr), s.Lookup(addr))
				}
			case 2:
				size := uint64(rng.Intn(64))
				h.Clear(addr, size)
				s.Clear(addr, size)
			case 3:
				// Bias src near dst so overlapping ranges are common.
				src := uint64(rng.Intn(window))
				if rng.Intn(2) == 0 {
					delta := uint64(rng.Intn(64))
					if rng.Intn(2) == 0 && addr >= delta {
						src = addr - delta
					} else {
						src = addr + delta
					}
				}
				size := uint64(rng.Intn(64))
				h.CopyRange(addr, src, size)
				s.CopyRange(addr, src, size)
			}
		}
		for a := uint64(0); a < window; a += 8 {
			if h.Lookup(a) != s.Lookup(a) {
				t.Fatalf("%s vs %s: final state: lookup(0x%x) disagrees: %+v vs %+v",
					h.Name(), s.Name(), a, h.Lookup(a), s.Lookup(a))
			}
		}
		if h.Occupancy().Live != s.Occupancy().Live {
			t.Fatalf("%s vs %s: Live %d vs %d", h.Name(), s.Name(), h.Occupancy().Live, s.Occupancy().Live)
		}
	}
}

// TestRegistry covers the scheme registry the benchmark matrix enumerates.
func TestRegistry(t *testing.T) {
	all := Schemes()
	if len(all) < 2 {
		t.Fatalf("registry has %d schemes, want >= 2", len(all))
	}
	for _, sc := range all {
		f := sc.New()
		if f.Name() != sc.Name {
			t.Errorf("scheme %q constructs facility named %q", sc.Name, f.Name())
		}
		if got, ok := SchemeByName(sc.Name); !ok || got.Kind != sc.Kind {
			t.Errorf("SchemeByName(%q) = %+v, %v", sc.Name, got, ok)
		}
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("SchemeByName accepted unknown scheme")
	}
	parsed, err := ParseSchemes(" hashtable , shadowspace ")
	if err != nil || len(parsed) != 2 {
		t.Errorf("ParseSchemes = %v, %v", parsed, err)
	}
	if _, err := ParseSchemes("hashtable,bogus"); err == nil {
		t.Error("ParseSchemes accepted unknown scheme")
	}
	if parsed, err = ParseSchemes(""); err != nil || len(parsed) != len(all) {
		t.Errorf("ParseSchemes(\"\") = %v, %v", parsed, err)
	}
}
