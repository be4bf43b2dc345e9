package meta

// ShadowSpace is the tag-less metadata organization (paper §5.1): a
// reserved region of the virtual address space big enough that every
// double-word of program memory has a dedicated metadata slot, so
// collisions cannot occur and no tag is stored or checked. A spatial slot
// holds base and bound, 16 bytes; a temporal one adds the CETS key and
// lock, 32 bytes.
//
// The paper implements this by mmap-ing a zero-initialized region and
// letting the OS allocate physical pages on demand. We reproduce the same
// demand paging with a two-level page table: pages materialize on first
// touch, so Footprint grows with the program's actually-used pointer
// slots, just like resident set size would.
type ShadowSpace struct {
	pages    map[uint64]*shadowPage
	temporal bool
	live     int64 // slots with a nonzero metadata word
}

const (
	shadowPageShift = 9 // 512 double-word slots per page
	shadowPageSlots = 1 << shadowPageShift
)

// shadowPage holds one column per metadata word. The key and lock
// columns exist only in a temporal space, so a spatial page is 16 bytes
// per slot.
type shadowPage struct {
	base, bound [shadowPageSlots]uint64
	keyLock     *[2][shadowPageSlots]uint64 // nil unless temporal
}

// get returns slot i; a spatial page reads Key and Lock as zero.
func (p *shadowPage) get(i uint64) Entry {
	e := Entry{Base: p.base[i], Bound: p.bound[i]}
	if kl := p.keyLock; kl != nil {
		e.Key, e.Lock = kl[0][i], kl[1][i]
	}
	return e
}

// set stores e in slot i, dropping Key and Lock in a spatial page, and
// returns the change in live slots, judged on the words actually stored.
func (p *shadowPage) set(i uint64, e Entry) int64 {
	was, is := p.base[i]|p.bound[i], e.Base|e.Bound
	p.base[i], p.bound[i] = e.Base, e.Bound
	if kl := p.keyLock; kl != nil {
		was, is = was|kl[0][i]|kl[1][i], is|e.Key|e.Lock
		kl[0][i], kl[1][i] = e.Key, e.Lock
	}
	return liveDelta(was, is)
}

// NewShadowSpace returns an empty shadow space, with key and lock columns
// if temporal.
func NewShadowSpace(temporal bool) *ShadowSpace {
	return &ShadowSpace{pages: make(map[uint64]*shadowPage), temporal: temporal}
}

func (s *ShadowSpace) slot(addr uint64) (uint64, uint64) {
	dw := addr >> 3
	return dw >> shadowPageShift, dw & (shadowPageSlots - 1)
}

// Lookup reads the slot for addr; untouched pages read as zero.
func (s *ShadowSpace) Lookup(addr uint64) Entry {
	pn, idx := s.slot(addr)
	if p := s.pages[pn]; p != nil {
		return p.get(idx)
	}
	return Entry{}
}

// Update writes the slot for addr, materializing its page on first touch.
func (s *ShadowSpace) Update(addr uint64, e Entry) {
	pn, idx := s.slot(addr)
	p := s.pages[pn]
	if p == nil {
		p = new(shadowPage)
		if s.temporal {
			p.keyLock = new([2][shadowPageSlots]uint64)
		}
		s.pages[pn] = p
	}
	s.live += p.set(idx, e)
}

// Clear zeroes all slots covering [addr, addr+size).
func (s *ShadowSpace) Clear(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := addr &^ 7; a < addr+size; a += 8 {
		pn, idx := s.slot(a)
		if p := s.pages[pn]; p != nil {
			s.live += p.set(idx, Entry{})
		}
	}
}

// CopyRange copies slot metadata from src to dst for size bytes, with
// memmove semantics for overlapping ranges (instrumented memcpy/memmove
// both funnel through here, paper §5.2).
func (s *ShadowSpace) CopyRange(dst, src, size uint64) {
	forEachSlotOffset(dst, src, size, func(off uint64) {
		e := s.Lookup(src + off)
		if e == (Entry{}) {
			s.Clear(dst+off, 8)
		} else {
			s.Update(dst+off, e)
		}
	})
}

// Costs reports the paper's ~5-instruction lookup for the shadow scheme;
// a temporal space adds the key/lock loads and the lock-table compare, ~9.
func (s *ShadowSpace) Costs() Costs {
	if s.temporal {
		return Costs{Lookup: 9, Update: 9}
	}
	return Costs{Lookup: 5, Update: 5}
}

// Footprint reports bytes of materialized shadow pages.
func (s *ShadowSpace) Footprint() int64 {
	perSlot := int64(16)
	if s.temporal {
		perSlot = 32
	}
	return int64(len(s.pages)) * shadowPageSlots * perSlot
}

// Occupancy reports live slots and materialized shadow bytes.
func (s *ShadowSpace) Occupancy() Occupancy {
	return Occupancy{Live: s.live, Bytes: s.Footprint()}
}

// Name identifies the scheme.
func (s *ShadowSpace) Name() string {
	if s.temporal {
		return "shadow-cets"
	}
	return "shadowspace"
}
