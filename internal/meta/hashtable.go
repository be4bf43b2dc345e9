package meta

import "fmt"

// HashTable is the open-hashing metadata organization (paper §5.1):
// entries hashed by double-word address with a shift-and-mask hash,
// collisions resolved by open addressing (linear probing), and the table
// kept under 70% load by doubling. With 64-bit pointers a spatial entry is
// (tag, base, bound), 24 bytes; a temporal table adds the CETS key and
// lock, 40 bytes.
type HashTable struct {
	tags          []uint64 // pointer address +1 (0 = empty)
	bases, bounds []uint64
	keys, locks   []uint64 // nil unless temporal
	mask          uint64
	used          int
	live          int64 // rows with a nonzero metadata word (tombstones excluded)

	// Probes counts total probe steps, exposing collision behaviour to
	// tests and benchmarks.
	Probes uint64
}

// initialHashEntries is the row count a registered hash table starts
// with; Update doubles it as the live population needs, so a run pays for
// the pointers it stores rather than for a worst-case table.
const initialHashEntries = 1 << 10

// NewHashTable returns a table with the given power-of-two entry count,
// with key and lock columns if temporal. A non-power-of-two size is a
// constructor error (the shift-and-mask hash requires the invariant),
// propagated so callers can fail closed.
func NewHashTable(entries int, temporal bool) (*HashTable, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("meta: hash table size %d is not a positive power of two", entries)
	}
	h := &HashTable{}
	h.alloc(entries, temporal)
	return h, nil
}

// MustHashTable is NewHashTable for compile-time-constant sizes, where a
// bad size is a programmer error.
func MustHashTable(entries int, temporal bool) *HashTable {
	h, err := NewHashTable(entries, temporal)
	if err != nil {
		panic(err)
	}
	return h
}

// alloc replaces the table's storage with entries empty rows.
func (h *HashTable) alloc(entries int, temporal bool) {
	h.tags, h.bases, h.bounds = make([]uint64, entries), make([]uint64, entries), make([]uint64, entries)
	h.keys, h.locks = nil, nil
	if temporal {
		h.keys, h.locks = make([]uint64, entries), make([]uint64, entries)
	}
	h.mask = uint64(entries - 1)
	h.used, h.live = 0, 0
}

func (h *HashTable) temporal() bool { return h.keys != nil }

// row returns row i; a spatial table reads Key and Lock as zero.
func (h *HashTable) row(i uint64) Entry {
	e := Entry{Base: h.bases[i], Bound: h.bounds[i]}
	if h.keys != nil {
		e.Key, e.Lock = h.keys[i], h.locks[i]
	}
	return e
}

// setRow stores e in row i, dropping Key and Lock in a spatial table, and
// accounts the change in live rows, judged on the words actually stored.
func (h *HashTable) setRow(i uint64, e Entry) {
	was, is := h.bases[i]|h.bounds[i], e.Base|e.Bound
	h.bases[i], h.bounds[i] = e.Base, e.Bound
	if h.keys != nil {
		was, is = was|h.keys[i]|h.locks[i], is|e.Key|e.Lock
		h.keys[i], h.locks[i] = e.Key, e.Lock
	}
	h.live += liveDelta(was, is)
}

// hash implements the paper's simple hash: the double-word address modulo
// the table size (shift and mask).
func (h *HashTable) hash(addr uint64) uint64 { return (addr >> 3) & h.mask }

// find probes for the double-word holding addr. It returns that key's row
// and true, or the empty row ending the probe chain and false. The low
// three bits do not participate (paper §5.1), so all byte addresses within
// one pointer slot share a row.
func (h *HashTable) find(addr uint64) (uint64, bool) {
	addr &^= 7
	key := addr + 1
	for i := h.hash(addr); ; i = (i + 1) & h.mask {
		h.Probes++
		switch h.tags[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Lookup finds the entry for addr, or the zero entry.
func (h *HashTable) Lookup(addr uint64) Entry {
	if i, ok := h.find(addr); ok {
		return h.row(i)
	}
	return Entry{}
}

// Update inserts or replaces the entry for addr, growing at 70% load.
// Like Lookup, the key is the double-word address, so an update through an
// unaligned byte address lands on the same entry Lookup and Clear use.
func (h *HashTable) Update(addr uint64, e Entry) {
	if uint64(h.used)*10 >= uint64(len(h.tags))*7 {
		h.grow()
	}
	i, ok := h.find(addr)
	if !ok {
		h.tags[i] = addr&^7 + 1
		h.used++
	}
	h.setRow(i, e)
}

func (h *HashTable) grow() {
	old := *h
	h.alloc(2*len(old.tags), old.temporal()) // Update re-accounts every reinserted entry
	for i, tag := range old.tags {
		// Cleared entries keep their tag (Clear zeroes only the metadata
		// words — open addressing cannot break probe chains), but
		// rehashing is the one place dead entries can be dropped:
		// skipping them here lets the load factor recover after
		// update/clear churn.
		if e := old.row(uint64(i)); tag != 0 && e.live() {
			h.Update(tag-1, e)
		}
	}
}

// Clear zeroes metadata for every double-word slot in [addr, addr+size).
// Open addressing cannot delete without tombstones; zeroing the entry is
// equivalent for safety (NULL bounds and a zero key fail all checks).
func (h *HashTable) Clear(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		if i, ok := h.find(a); ok {
			h.setRow(i, Entry{})
		}
	}
}

// CopyRange copies metadata for each pointer-aligned slot; key and lock
// travel with the spatial words. Overlapping ranges follow memmove
// semantics: when dst overlaps src from above, the copy runs backwards so
// already-copied slots are never read as source.
func (h *HashTable) CopyRange(dst, src, size uint64) {
	forEachSlotOffset(dst, src, size, func(off uint64) {
		e := h.Lookup(src + off)
		if e != (Entry{}) {
			h.Update(dst+off, e)
		} else {
			h.Clear(dst+off, 8)
		}
	})
}

// Costs reports the paper's ~9-instruction lookup for the hash scheme; a
// temporal table adds two loads (key, lock) and the lock-table load and
// compare, ~13.
func (h *HashTable) Costs() Costs {
	if h.temporal() {
		return Costs{Lookup: 13, Update: 13}
	}
	return Costs{Lookup: 9, Update: 9}
}

// Occupancy reports live (non-tombstone) entries and table bytes.
func (h *HashTable) Occupancy() Occupancy {
	return Occupancy{Live: h.live, Bytes: h.Footprint()}
}

// Footprint reports table bytes: 24 per entry, 40 if temporal.
func (h *HashTable) Footprint() int64 {
	perEntry := int64(24)
	if h.temporal() {
		perEntry = 40
	}
	return int64(len(h.tags)) * perEntry
}

// Name identifies the scheme.
func (h *HashTable) Name() string {
	if h.temporal() {
		return "hashtable-cets"
	}
	return "hashtable"
}
