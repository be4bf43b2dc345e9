// Package vm executes the IR on a simulated 64-bit flat memory.
//
// The machine is deliberately faithful to the properties the paper's
// evaluation depends on:
//
//   - Control data lives in addressable simulated memory. Every call frame
//     stores a return token and saved frame pointer above the frame's
//     locals (x86-style), function pointers are addresses in a function
//     segment, and jmp_buf contents are ordinary user memory. Buffer
//     overflows therefore genuinely corrupt control data, and the Wilander
//     attack suite (Table 3) genuinely hijacks control flow when checking
//     is off.
//   - Unchecked out-of-bounds accesses that stay within a segment silently
//     corrupt neighbouring objects, as on real hardware; only accesses to
//     unmapped addresses fault.
//   - Memory is demand-paged like the paper's zero-filled mmap regions:
//     each segment is a directory of PageSize pages, a page materializes
//     on its first write, and untouched pages read as zero. Segment sizes
//     are limits, so a run pays only for the memory it writes.
//   - Every executed IR operation is costed in simulated x86 instructions,
//     with metadata operations costed per the selected facility (hash
//     table ≈ 9, shadow space ≈ 5 — paper §5.1), so overhead ratios have
//     the paper's shape.
package vm

import (
	"encoding/binary"
	"fmt"
)

// Address space layout (all constants are simulated addresses).
const (
	// GlobalBase is where module globals are laid out.
	GlobalBase uint64 = 0x0001_0000
	// HeapBase is the bottom of the heap, which grows upward.
	HeapBase uint64 = 0x0100_0000
	// DefaultHeapSize bounds the heap segment.
	DefaultHeapSize uint64 = 64 << 20
	// StackTop is the top of the stack, which grows downward.
	StackTop uint64 = 0x7000_0000
	// DefaultStackSize bounds the stack segment.
	DefaultStackSize uint64 = 8 << 20
	// FuncBase is the function segment: function i has address
	// FuncBase + i*FuncSlot. Calling such an address invokes the function.
	FuncBase uint64 = 0x7f00_0000_0000
	// FuncSlot spaces function addresses.
	FuncSlot uint64 = 16
	// RetTokenBase marks legitimate return-site tokens.
	RetTokenBase uint64 = 0x7e00_0000_0000
	// JmpTokenBase marks setjmp checkpoint tokens.
	JmpTokenBase uint64 = 0x7d00_0000_0000
)

// PageSize is the demand-paging granularity of every segment, 64 KiB. A
// page is allocated on the first write that touches it; until then it
// reads as zero, as the zero-filled mmap regions of the paper's runtime
// do (§5.1).
const PageSize = 1 << pageShift

const (
	pageShift = 16
	pageMask  = PageSize - 1
)

// zeroPage backs reads of untouched pages. It is never written.
var zeroPage [PageSize]byte

// segment is one contiguous mapped range [base, end), backed by a page
// directory: pages[i] holds the bytes from base+i*PageSize, or is nil
// while that page is untouched. The last page is cut to the segment end.
type segment struct {
	base, end uint64
	pages     [][]byte
}

func newSegment(base, size uint64) segment {
	return segment{base: base, end: base + size, pages: make([][]byte, (size+pageMask)>>pageShift)}
}

// contains reports whether [addr, addr+size) lies inside the segment,
// with overflow-safe bounds arithmetic.
func (s *segment) contains(addr, size uint64) bool {
	return addr >= s.base && addr+size <= s.end && addr+size >= addr
}

// page returns page i, materializing it first if write.
func (s *segment) page(i uint64, write bool) []byte {
	p := s.pages[i]
	if p == nil && write {
		p = make([]byte, min(PageSize, s.end-s.base-i<<pageShift))
		s.pages[i] = p
	}
	return p
}

// forPages visits the pieces of [addr, addr+size) page by page, passing
// each piece's page (nil for an untouched page unless write) and its
// offsets within the page and within the range.
func (s *segment) forPages(addr, size uint64, write bool, fn func(p []byte, po, ro, n uint64)) {
	off := addr - s.base
	for ro := uint64(0); ro < size; {
		po := (off + ro) & pageMask
		n := min(PageSize-po, size-ro)
		fn(s.page((off+ro)>>pageShift, write), po, ro, n)
		ro += n
	}
}

// Mem is the simulated memory: three demand-paged segments. Their sizes
// are limits on the mapped address range, not allocations: a run pays
// only for the pages it writes.
type Mem struct {
	globals, heap, stack segment // the stack segment ends at StackTop

	// hot is the materialized page of the last one-page access, at
	// simulated address hotAddr: a repeat access to it, the common case
	// for a frame or a loop over one object, skips the segment and
	// directory lookups.
	hot     []byte
	hotAddr uint64
}

// NewMem builds a memory with the given segment sizes.
func NewMem(globalSize, heapSize, stackSize uint64) *Mem {
	if heapSize == 0 {
		heapSize = DefaultHeapSize
	}
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	return &Mem{
		globals: newSegment(GlobalBase, globalSize),
		heap:    newSegment(HeapBase, heapSize),
		stack:   newSegment(StackTop-stackSize, stackSize),
	}
}

// segment returns the segment holding all of [addr, addr+size), or nil
// if the range is not mapped within a single segment (a fault).
func (m *Mem) segment(addr, size uint64) *segment {
	switch {
	case m.globals.contains(addr, size):
		return &m.globals
	case m.heap.contains(addr, size):
		return &m.heap
	case m.stack.contains(addr, size):
		return &m.stack
	}
	return nil
}

// word returns the bytes of a size-byte access that is mapped and lies
// within one page, materializing the page if write; a read of an untouched
// page gets zeros. It returns nil when the access faults or straddles a
// page, which the callers hand to the page-wise path.
func (m *Mem) word(addr, size uint64, write bool) []byte {
	if off := addr - m.hotAddr; off < uint64(len(m.hot)) && size <= uint64(len(m.hot))-off {
		return m.hot[off : off+size]
	}
	s := m.segment(addr, size)
	if s == nil {
		return nil
	}
	off := addr - s.base
	po := off & pageMask
	if po+size > PageSize {
		return nil
	}
	p := s.page(off>>pageShift, write)
	if p == nil {
		return zeroPage[po : po+size]
	}
	m.hot, m.hotAddr = p, addr-po
	return p[po : po+size]
}

// read copies [addr, addr+len(dst)) into dst page by page.
func (m *Mem) read(addr uint64, dst []byte) error {
	s := m.segment(addr, uint64(len(dst)))
	if s == nil {
		return &FaultError{Addr: addr, Size: uint64(len(dst))}
	}
	s.forPages(addr, uint64(len(dst)), false, func(p []byte, po, ro, n uint64) {
		if p == nil {
			clear(dst[ro : ro+n])
		} else {
			copy(dst[ro:ro+n], p[po:])
		}
	})
	return nil
}

// FaultError is an access to unmapped simulated memory (a segfault).
type FaultError struct {
	Addr uint64
	Size uint64
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("segmentation fault: access of %d bytes at 0x%x", e.Size, e.Addr)
}

// Valid reports whether [addr, addr+size) is mapped.
func (m *Mem) Valid(addr, size uint64) bool {
	return m.segment(addr, size) != nil
}

// ReadU64 loads 8 little-endian bytes.
func (m *Mem) ReadU64(addr uint64) (uint64, error) {
	if b := m.word(addr, 8, false); b != nil {
		return binary.LittleEndian.Uint64(b), nil
	}
	var b [8]byte
	err := m.read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// WriteU64 stores 8 little-endian bytes.
func (m *Mem) WriteU64(addr, v uint64) error {
	if b := m.word(addr, 8, true); b != nil {
		binary.LittleEndian.PutUint64(b, v)
		return nil
	}
	return m.WriteBytes(addr, binary.LittleEndian.AppendUint64(nil, v))
}

// ReadU32 loads 4 bytes.
func (m *Mem) ReadU32(addr uint64) (uint32, error) {
	if b := m.word(addr, 4, false); b != nil {
		return binary.LittleEndian.Uint32(b), nil
	}
	var b [4]byte
	err := m.read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

// WriteU32 stores 4 bytes.
func (m *Mem) WriteU32(addr uint64, v uint32) error {
	if b := m.word(addr, 4, true); b != nil {
		binary.LittleEndian.PutUint32(b, v)
		return nil
	}
	return m.WriteBytes(addr, binary.LittleEndian.AppendUint32(nil, v))
}

// ReadU16 loads 2 bytes.
func (m *Mem) ReadU16(addr uint64) (uint16, error) {
	if b := m.word(addr, 2, false); b != nil {
		return binary.LittleEndian.Uint16(b), nil
	}
	var b [2]byte
	err := m.read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:]), err
}

// WriteU16 stores 2 bytes.
func (m *Mem) WriteU16(addr uint64, v uint16) error {
	if b := m.word(addr, 2, true); b != nil {
		binary.LittleEndian.PutUint16(b, v)
		return nil
	}
	return m.WriteBytes(addr, binary.LittleEndian.AppendUint16(nil, v))
}

// ReadU8 loads one byte.
func (m *Mem) ReadU8(addr uint64) (byte, error) {
	if b := m.word(addr, 1, false); b != nil {
		return b[0], nil
	}
	return 0, &FaultError{Addr: addr, Size: 1}
}

// WriteU8 stores one byte.
func (m *Mem) WriteU8(addr uint64, v byte) error {
	if b := m.word(addr, 1, true); b != nil {
		b[0] = v
		return nil
	}
	return &FaultError{Addr: addr, Size: 1}
}

// ReadBytes copies size bytes out of memory.
func (m *Mem) ReadBytes(addr, size uint64) ([]byte, error) {
	if !m.Valid(addr, size) {
		return nil, &FaultError{Addr: addr, Size: size}
	}
	out := make([]byte, size)
	return out, m.read(addr, out)
}

// WriteBytes copies data into memory page by page.
func (m *Mem) WriteBytes(addr uint64, data []byte) error {
	s := m.segment(addr, uint64(len(data)))
	if s == nil {
		return &FaultError{Addr: addr, Size: uint64(len(data))}
	}
	s.forPages(addr, uint64(len(data)), true, func(p []byte, po, ro, n uint64) {
		copy(p[po:po+n], data[ro:])
	})
	return nil
}

// Fill sets size bytes at addr to c, the range fill behind memset and
// calloc. Filling an untouched page with zero leaves it untouched.
func (m *Mem) Fill(addr, size uint64, c byte) error {
	s := m.segment(addr, size)
	if s == nil {
		return &FaultError{Addr: addr, Size: size}
	}
	s.forPages(addr, size, c != 0, func(p []byte, po, _, n uint64) {
		if p != nil {
			b := p[po : po+n]
			for i := range b {
				b[i] = c
			}
		}
	})
	return nil
}

// CString reads a NUL-terminated string, bounded by maxLen to keep a
// runaway read from scanning the whole segment.
func (m *Mem) CString(addr uint64, maxLen int) (string, error) {
	var out []byte
	for i := 0; i < maxLen; i++ {
		c, err := m.ReadU8(addr + uint64(i))
		if err != nil {
			return string(out), err
		}
		if c == 0 {
			return string(out), nil
		}
		out = append(out, c)
	}
	return string(out), nil
}

// heapAllocator is a first-fit free-list allocator over the heap segment.
// Block bookkeeping lives outside simulated memory, but blocks are placed
// contiguously so an overflow from one allocation corrupts the next — the
// behaviour heap attacks rely on.
type heapAllocator struct {
	brk      uint64 // next fresh address
	limit    uint64
	free     map[uint64][]uint64 // size class -> addresses
	sizes    map[uint64]uint64   // live block -> size
	inUse    uint64
	maxInUse uint64
}

func newHeapAllocator(limit uint64) *heapAllocator {
	return &heapAllocator{
		brk:   HeapBase,
		limit: limit,
		free:  make(map[uint64][]uint64),
		sizes: make(map[uint64]uint64),
	}
}

func roundAlloc(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + 15) &^ 15
}

// alloc returns the address of a block of at least size bytes, or 0 when
// out of memory.
func (h *heapAllocator) alloc(size uint64) uint64 {
	cl := roundAlloc(size)
	if lst := h.free[cl]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		h.free[cl] = lst[:len(lst)-1]
		h.sizes[addr] = size
		h.account(cl)
		return addr
	}
	if h.brk+cl > h.limit {
		return 0
	}
	addr := h.brk
	h.brk += cl
	h.sizes[addr] = size
	h.account(cl)
	return addr
}

func (h *heapAllocator) account(cl uint64) {
	h.inUse += cl
	if h.inUse > h.maxInUse {
		h.maxInUse = h.inUse
	}
}

// size returns the live block size at addr (0 if not a live block start).
func (h *heapAllocator) size(addr uint64) uint64 { return h.sizes[addr] }

// release frees the block at addr; reports whether it was live.
func (h *heapAllocator) release(addr uint64) bool {
	sz, ok := h.sizes[addr]
	if !ok {
		return false
	}
	delete(h.sizes, addr)
	cl := roundAlloc(sz)
	h.free[cl] = append(h.free[cl], addr)
	h.inUse -= cl
	return true
}
