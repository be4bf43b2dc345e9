package meta

import (
	"math/rand"
	"testing"
)

// model is the abstract map every facility implements: one entry per
// double-word slot, with a spatial facility keeping only base and bound.
type model struct {
	temporal bool
	slots    map[uint64]Entry
}

func (m *model) update(addr uint64, e Entry) {
	if !m.temporal {
		e.Key, e.Lock = 0, 0
	}
	if e == (Entry{}) {
		delete(m.slots, addr>>3)
		return
	}
	m.slots[addr>>3] = e
}

func (m *model) clear(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		delete(m.slots, a>>3)
	}
}

// copyRange snapshots the source slots before writing any destination
// slot, which is memmove for the double-word-aligned ranges used here.
func (m *model) copyRange(dst, src, size uint64) {
	n := (size + 7) / 8
	snap := make([]Entry, n)
	for i := range snap {
		snap[i] = m.slots[src>>3+uint64(i)]
	}
	for i, e := range snap {
		m.update(dst+uint64(i)*8, e)
	}
}

// TestFacilitiesMatchModel runs a long random operation sequence on every
// registered scheme and checks each lookup, and the live count at the
// end, against the abstract map. Addresses cluster in a small window, so
// slots are reused, overwritten, cleared by unaligned ranges and copied
// over each other; the hash tables start small and grow under the load.
func TestFacilitiesMatchModel(t *testing.T) {
	for _, sc := range Schemes() {
		t.Run(sc.Name, func(t *testing.T) {
			f := newSmall(sc.Kind)
			m := &model{temporal: sc.Kind.Temporal(), slots: map[uint64]Entry{}}
			rng := rand.New(rand.NewSource(42))
			slot := func() uint64 { return 0x10000 + uint64(rng.Intn(1<<12))*8 }
			word := func() uint64 {
				if rng.Intn(4) == 0 {
					return 0
				}
				return uint64(rng.Int63())
			}
			for i := 0; i < 50_000; i++ {
				switch rng.Intn(10) {
				case 0, 1:
					a := slot() + uint64(rng.Intn(8))
					e := Entry{Base: word(), Bound: word(), Key: word(), Lock: word()}
					f.Update(a, e)
					m.update(a, e)
				case 2:
					a, n := slot()+uint64(rng.Intn(8)), uint64(rng.Intn(256))
					f.Clear(a, n)
					m.clear(a, n)
				case 3:
					d, s, n := slot(), slot(), uint64(rng.Intn(256))
					f.CopyRange(d, s, n)
					m.copyRange(d, s, n)
				default:
					a := slot() + uint64(rng.Intn(8))
					if got, want := f.Lookup(a), m.slots[a>>3]; got != want {
						t.Fatalf("op %d: Lookup(%#x) = %+v, want %+v", i, a, got, want)
					}
				}
			}
			if got, want := f.Occupancy().Live, int64(len(m.slots)); got != want {
				t.Fatalf("Occupancy().Live = %d, model holds %d", got, want)
			}
		})
	}
}
