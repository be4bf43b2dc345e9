package meta

import (
	"testing"
	"testing/quick"
)

// facilities builds one facility of every registered scheme.
func facilities() []Facility {
	var out []Facility
	for _, s := range Schemes() {
		out = append(out, s.New())
	}
	return out
}

// newSmall builds a facility of kind k with a 64-entry hash table, so
// property tests construct it cheaply and drive it through growth.
func newSmall(k Kind) Facility {
	if k == KindHashTable || k == KindHashTableCETS {
		return MustHashTable(64, k.Temporal())
	}
	return NewShadowSpace(k.Temporal())
}

// schemePairs groups the registered schemes by temporality: each pair is
// the two organizations of one entry layout, which must agree exactly.
func schemePairs(t *testing.T) [][]Scheme {
	var pairs [][]Scheme
	for _, temporal := range []bool{false, true} {
		var pair []Scheme
		for _, s := range Schemes() {
			if s.Kind.Temporal() == temporal {
				pair = append(pair, s)
			}
		}
		if len(pair) != 2 {
			t.Fatalf("temporal=%v: %d schemes, want one per organization", temporal, len(pair))
		}
		pairs = append(pairs, pair)
	}
	return pairs
}

func TestLookupMissingIsZero(t *testing.T) {
	for _, f := range facilities() {
		if e := f.Lookup(0x1234560); e != (Entry{}) {
			t.Errorf("%s: missing lookup = %+v", f.Name(), e)
		}
	}
}

func TestUpdateLookupRoundTrip(t *testing.T) {
	for _, f := range facilities() {
		e := Entry{Base: 0x1000, Bound: 0x1040}
		f.Update(0x2000, e)
		if got := f.Lookup(0x2000); got != e {
			t.Errorf("%s: got %+v", f.Name(), got)
		}
		// Overwrite.
		e2 := Entry{Base: 0x3000, Bound: 0x3008}
		f.Update(0x2000, e2)
		if got := f.Lookup(0x2000); got != e2 {
			t.Errorf("%s: after overwrite got %+v", f.Name(), got)
		}
		// Neighbouring slots unaffected.
		if got := f.Lookup(0x2008); got != (Entry{}) {
			t.Errorf("%s: neighbour affected: %+v", f.Name(), got)
		}
	}
}

func TestClear(t *testing.T) {
	for _, f := range facilities() {
		for i := uint64(0); i < 8; i++ {
			f.Update(0x4000+i*8, Entry{Base: 1, Bound: 2})
		}
		f.Clear(0x4000+8, 24) // clears slots 1,2,3
		for i := uint64(0); i < 8; i++ {
			got := f.Lookup(0x4000 + i*8)
			cleared := i >= 1 && i <= 3
			if cleared && got != (Entry{}) {
				t.Errorf("%s: slot %d not cleared", f.Name(), i)
			}
			if !cleared && got == (Entry{}) {
				t.Errorf("%s: slot %d wrongly cleared", f.Name(), i)
			}
		}
	}
}

func TestCopyRange(t *testing.T) {
	for _, f := range facilities() {
		f.Update(0x5000, Entry{Base: 10, Bound: 20})
		f.Update(0x5008, Entry{Base: 30, Bound: 40})
		f.Update(0x6008, Entry{Base: 99, Bound: 100}) // stale dst metadata
		f.CopyRange(0x6000, 0x5000, 16)
		if got := f.Lookup(0x6000); got != (Entry{Base: 10, Bound: 20}) {
			t.Errorf("%s: copy slot 0: %+v", f.Name(), got)
		}
		if got := f.Lookup(0x6008); got != (Entry{Base: 30, Bound: 40}) {
			t.Errorf("%s: copy slot 1: %+v", f.Name(), got)
		}
		// Copying a region with no metadata clears the destination.
		f.CopyRange(0x6000, 0x7000, 16)
		if got := f.Lookup(0x6000); got != (Entry{}) {
			t.Errorf("%s: stale metadata survived copy: %+v", f.Name(), got)
		}
	}
}

func TestHashTableGrowth(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		h := MustHashTable(16, temporal)
		// Insert far more than 16 entries: growth must preserve contents.
		for i := uint64(0); i < 1000; i++ {
			h.Update(i*8, Entry{Base: i, Bound: i + 8})
		}
		for i := uint64(0); i < 1000; i++ {
			if got := h.Lookup(i * 8); got != (Entry{Base: i, Bound: i + 8}) {
				t.Fatalf("%s: entry %d lost after growth: %+v", h.Name(), i, got)
			}
		}
	}
}

func TestHashTableCollisions(t *testing.T) {
	for _, temporal := range []bool{false, true} {
		h := MustHashTable(16, temporal)
		// Addresses that collide under the shift-and-mask hash.
		a1 := uint64(0x100)
		a2 := a1 + 16*8 // same hash bucket
		h.Update(a1, Entry{Base: 1, Bound: 2})
		h.Update(a2, Entry{Base: 3, Bound: 4})
		if got := h.Lookup(a1); got != (Entry{Base: 1, Bound: 2}) {
			t.Errorf("%s: a1: %+v", h.Name(), got)
		}
		if got := h.Lookup(a2); got != (Entry{Base: 3, Bound: 4}) {
			t.Errorf("%s: a2: %+v", h.Name(), got)
		}
		if h.Probes == 0 {
			t.Errorf("%s: probe counter not counting", h.Name())
		}
	}
}

// TestCosts pins each registered scheme's name, modeled costs
// (paper §5.1: ~9 instructions for the hash table, ~5 for the shadow
// space, ~4 more for the temporal key and lock) and bytes per entry.
func TestCosts(t *testing.T) {
	want := map[string]struct {
		costs      Costs
		entryBytes int64
	}{
		"hashtable":      {Costs{Lookup: 9, Update: 9}, 24},
		"shadowspace":    {Costs{Lookup: 5, Update: 5}, 16},
		"hashtable-cets": {Costs{Lookup: 13, Update: 13}, 40},
		"shadow-cets":    {Costs{Lookup: 9, Update: 9}, 32},
	}
	if got := len(Schemes()); got != len(want) {
		t.Fatalf("%d registered schemes, want %d", got, len(want))
	}
	for _, s := range Schemes() {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected scheme %q", s.Name)
		}
		f := s.New()
		if f.Name() != s.Name || s.Kind.String() != s.Name || newSmall(s.Kind).Name() != s.Name {
			t.Errorf("%s: facility %q, kind %q, small %q", s.Name, f.Name(), s.Kind, newSmall(s.Kind).Name())
		}
		if f.Costs() != w.costs {
			t.Errorf("%s: costs %+v, want %+v", s.Name, f.Costs(), w.costs)
		}
		// A fresh hash table has 1<<20 entries; a shadow space pays for
		// whole pages of slots, materialized on first touch.
		entries := int64(1 << 20)
		if _, shadow := f.(*ShadowSpace); shadow {
			if f.Footprint() != 0 {
				t.Errorf("%s: fresh footprint %d, want 0", s.Name, f.Footprint())
			}
			f.Update(1<<30, Entry{Base: 1, Bound: 2})
			entries = shadowPageSlots
		}
		if got := f.Footprint() / entries; got != w.entryBytes {
			t.Errorf("%s: %d bytes per entry, want %d", s.Name, got, w.entryBytes)
		}
	}
	c := Costed(NewShadowSpace(false), Costs{Lookup: 14, Update: 14})
	if c.Costs().Lookup != 14 {
		t.Fatal("Costed override ignored")
	}
}

// TestSpatialDropsTemporalWords checks that a spatial table stores only
// base and bound: Key and Lock read back as zero, and an entry carrying
// nothing else is not live. A temporal table keeps all four words.
func TestSpatialDropsTemporalWords(t *testing.T) {
	for _, s := range Schemes() {
		f := s.New()
		full := Entry{Base: 0x1000, Bound: 0x1040, Key: 5, Lock: 6}
		keyOnly := Entry{Key: 5, Lock: 6}
		f.Update(0x2000, full)
		f.Update(0x2008, keyOnly)
		wantFull, wantKeyOnly, wantLive := full, keyOnly, int64(2)
		if !s.Kind.Temporal() {
			wantFull, wantKeyOnly, wantLive = Entry{Base: 0x1000, Bound: 0x1040}, Entry{}, 1
		}
		if got := f.Lookup(0x2000); got != wantFull {
			t.Errorf("%s: full entry read back as %+v, want %+v", f.Name(), got, wantFull)
		}
		if got := f.Lookup(0x2008); got != wantKeyOnly {
			t.Errorf("%s: key-only entry read back as %+v, want %+v", f.Name(), got, wantKeyOnly)
		}
		if got := f.Occupancy().Live; got != wantLive {
			t.Errorf("%s: Live = %d, want %d", f.Name(), got, wantLive)
		}
	}
}

func TestFootprintGrows(t *testing.T) {
	s := NewShadowSpace(false)
	f0 := s.Footprint()
	s.Update(1<<30, Entry{Base: 1, Bound: 2})
	if s.Footprint() <= f0 {
		t.Error("shadow footprint did not grow on first touch")
	}
}

// TestUnknownKind checks that a kind with no registered scheme names
// itself by number and is a constructor error, not a silent fallback.
func TestUnknownKind(t *testing.T) {
	k := Kind(99)
	if k.String() != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", k.String())
	}
	if f, err := New(k); err == nil {
		t.Fatalf("New(Kind(99)) = %s, want an error", f.Name())
	}
	for _, s := range Schemes() {
		if f, err := New(s.Kind); err != nil || f.Name() != s.Name {
			t.Errorf("New(%s) = %v, %v", s.Kind, f, err)
		}
	}
}

// TestFacilitiesAgree property-checks that both organizations of each
// entry layout implement the same abstract map under arbitrary operation
// sequences, temporal words included.
func TestFacilitiesAgree(t *testing.T) {
	type op struct {
		Kind      byte
		Slot      uint16
		B, E      uint32
		Key, Lock uint16
	}
	for _, pair := range schemePairs(t) {
		f := func(ops []op) bool {
			h, s := newSmall(pair[0].Kind), newSmall(pair[1].Kind)
			for _, o := range ops {
				addr := uint64(o.Slot) * 8
				switch o.Kind % 4 {
				case 0:
					e := Entry{Base: uint64(o.B), Bound: uint64(o.E), Key: uint64(o.Key), Lock: uint64(o.Lock)}
					h.Update(addr, e)
					s.Update(addr, e)
				case 1:
					if h.Lookup(addr) != s.Lookup(addr) {
						return false
					}
				case 2:
					size := uint64(o.B % 64)
					h.Clear(addr, size)
					s.Clear(addr, size)
				case 3:
					src := uint64(o.E%1024) * 8
					size := uint64(o.B % 64)
					h.CopyRange(addr, src, size)
					s.CopyRange(addr, src, size)
				}
			}
			// Final states agree on every touched slot.
			for slot := uint64(0); slot < 1<<16; slot += 512 {
				if h.Lookup(slot*8) != s.Lookup(slot*8) {
					return false
				}
			}
			return h.Occupancy().Live == s.Occupancy().Live
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s vs %s: %v", pair[0].Name, pair[1].Name, err)
		}
	}
}
