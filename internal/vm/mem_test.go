package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// flatMem is the reference model of the paged Mem: the same three
// segments, each one flat byte slice.
type flatMem struct {
	segs []flatSeg
}

type flatSeg struct {
	base uint64
	b    []byte
}

func newFlatMem(globalSize, heapSize, stackSize uint64) *flatMem {
	return &flatMem{segs: []flatSeg{
		{GlobalBase, make([]byte, globalSize)},
		{HeapBase, make([]byte, heapSize)},
		{StackTop - stackSize, make([]byte, stackSize)},
	}}
}

func (f *flatMem) slice(addr, size uint64) ([]byte, error) {
	for _, s := range f.segs {
		end := s.base + uint64(len(s.b))
		if addr >= s.base && addr+size <= end && addr+size >= addr {
			return s.b[addr-s.base : addr-s.base+size], nil
		}
	}
	return nil, &FaultError{Addr: addr, Size: size}
}

// materialized counts the pages the paged memory has allocated.
func (m *Mem) materialized() int {
	n := 0
	for _, s := range []*segment{&m.globals, &m.heap, &m.stack} {
		for _, p := range s.pages {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// sameErr reports whether two access errors agree: both nil, or both
// faults at the same address and size.
func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *FaultError
	return errors.As(got, &g) && errors.As(want, &w) && *g == *w
}

// TestMemDifferential drives the paged memory with seeded random
// operations against the flat model: every load and store width,
// multi-page ReadBytes/WriteBytes, the memset/calloc fill, accesses that
// straddle a page, and accesses at the first and last byte of each
// segment. Values and faults must match exactly, and no read may
// materialize a page.
func TestMemDifferential(t *testing.T) {
	// Segment ends that are not page multiples exercise the cut last page;
	// the odd stack size also puts its page boundaries off the absolute
	// 64 KiB grid.
	const (
		globalSize = 2*PageSize + 40
		heapSize   = 6 * PageSize
		stackSize  = 3*PageSize + 24
	)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem(globalSize, heapSize, stackSize)
		ref := newFlatMem(globalSize, heapSize, stackSize)

		// addr picks an address for a size-byte access, biased toward the
		// edges where paging and segment bounds can disagree.
		addr := func(size uint64) uint64 {
			s := ref.segs[rng.Intn(len(ref.segs))]
			n := uint64(len(s.b))
			d := uint64(rng.Intn(int(size) + 2))
			switch rng.Intn(8) {
			case 0: // first byte of the segment, or just below it
				return s.base - d&1
			case 1: // ending at or around the last byte
				return s.base + n - size + d&3 - 1
			case 2, 3: // straddling an interior page boundary
				if pages := n / PageSize; pages > 0 {
					return s.base + uint64(1+rng.Intn(int(pages)))*PageSize - d
				}
				return s.base
			case 4: // unmapped
				return []uint64{0, 8, GlobalBase + n, StackTop, ^uint64(0) - 3}[rng.Intn(5)]
			}
			return s.base + uint64(rng.Int63n(int64(n)))
		}

		for op := 0; op < 20000; op++ {
			before := m.materialized()
			reads := true
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // loads of every width
				size := uint64(1) << rng.Intn(4)
				a := addr(size)
				want, werr := ref.slice(a, size)
				var got uint64
				var err error
				switch size {
				case 1:
					var v byte
					v, err = m.ReadU8(a)
					got = uint64(v)
				case 2:
					var v uint16
					v, err = m.ReadU16(a)
					got = uint64(v)
				case 4:
					var v uint32
					v, err = m.ReadU32(a)
					got = uint64(v)
				case 8:
					got, err = m.ReadU64(a)
				}
				var exp uint64
				if werr == nil {
					var buf [8]byte
					copy(buf[:], want)
					exp = binary.LittleEndian.Uint64(buf[:])
				}
				if !sameErr(err, werr) || got != exp {
					t.Fatalf("seed %d op %d: read%d(0x%x) = %#x, %v; want %#x, %v", seed, op, 8*size, a, got, err, exp, werr)
				}
			case 4, 5, 6: // stores of every width
				reads = false
				size := uint64(1) << rng.Intn(4)
				a := addr(size)
				v := rng.Uint64()
				var err error
				switch size {
				case 1:
					err = m.WriteU8(a, byte(v))
				case 2:
					err = m.WriteU16(a, uint16(v))
				case 4:
					err = m.WriteU32(a, uint32(v))
				case 8:
					err = m.WriteU64(a, v)
				}
				b, werr := ref.slice(a, size)
				if werr == nil {
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], v)
					copy(b, buf[:size])
				}
				if !sameErr(err, werr) {
					t.Fatalf("seed %d op %d: write%d(0x%x) = %v, want %v", seed, op, 8*size, a, err, werr)
				}
			case 7: // multi-page reads and writes
				size := uint64(rng.Intn(3 * PageSize))
				a := addr(size)
				want, werr := ref.slice(a, size)
				if rng.Intn(2) == 0 {
					got, err := m.ReadBytes(a, size)
					if !sameErr(err, werr) || (werr == nil && !bytes.Equal(got, want)) {
						t.Fatalf("seed %d op %d: ReadBytes(0x%x, %d) err %v, want %v (or bytes differ)", seed, op, a, size, err, werr)
					}
				} else {
					reads = false
					data := make([]byte, size)
					rng.Read(data)
					err := m.WriteBytes(a, data)
					if !sameErr(err, werr) {
						t.Fatalf("seed %d op %d: WriteBytes(0x%x, %d) = %v, want %v", seed, op, a, size, err, werr)
					}
					if werr == nil {
						copy(want, data)
					}
				}
			case 8: // the memset/calloc fill; a zero fill must not materialize
				size := uint64(rng.Intn(3 * PageSize))
				a := addr(size)
				c := byte(0)
				if rng.Intn(2) == 0 {
					c = byte(rng.Intn(256))
					reads = false
				}
				err := m.Fill(a, size, c)
				want, werr := ref.slice(a, size)
				if !sameErr(err, werr) {
					t.Fatalf("seed %d op %d: Fill(0x%x, %d) = %v, want %v", seed, op, a, size, err, werr)
				}
				for i := range want {
					want[i] = c
				}
			case 9: // Valid and CString
				size := uint64(rng.Intn(2 * PageSize))
				a := addr(size)
				_, werr := ref.slice(a, size)
				if m.Valid(a, size) != (werr == nil) {
					t.Fatalf("seed %d op %d: Valid(0x%x, %d) = %v", seed, op, a, size, !(werr == nil))
				}
				got, err := m.CString(a, 64)
				var want []byte
				var cerr error
				for i := uint64(0); i < 64; i++ {
					b, e := ref.slice(a+i, 1)
					if e != nil {
						cerr = e
						break
					}
					if b[0] == 0 {
						break
					}
					want = append(want, b[0])
				}
				if got != string(want) || !sameErr(err, cerr) {
					t.Fatalf("seed %d op %d: CString(0x%x) = %q, %v; want %q, %v", seed, op, a, got, err, want, cerr)
				}
			}
			if after := m.materialized(); reads && after != before {
				t.Fatalf("seed %d op %d: a read materialized %d pages", seed, op, after-before)
			}
		}

		// Whole-segment comparison closes each seed.
		for _, s := range ref.segs {
			got, err := m.ReadBytes(s.base, uint64(len(s.b)))
			if err != nil || !bytes.Equal(got, s.b) {
				t.Fatalf("seed %d: segment at 0x%x differs from the model (%v)", seed, s.base, err)
			}
		}
	}
}

// TestMemPagesMaterializeOnWrite checks the default-sized segments: a
// fresh memory holds no page, reads across a page boundary of each
// segment allocate none, and a straddling write materializes exactly the
// two pages it touches.
func TestMemPagesMaterializeOnWrite(t *testing.T) {
	m := NewMem(3*PageSize, 0, 0)
	for _, s := range []*segment{&m.globals, &m.heap, &m.stack} {
		if v, err := m.ReadU64(s.base + PageSize - 4); err != nil || v != 0 {
			t.Fatalf("straddling read at 0x%x = %x, %v", s.base+PageSize-4, v, err)
		}
		if b, err := m.ReadBytes(s.end-2*PageSize-8, 2*PageSize); err != nil || bytes.Count(b, []byte{0}) != len(b) {
			t.Fatalf("segment 0x%x: fresh read not all zero (%v)", s.base, err)
		}
	}
	if n := m.materialized(); n != 0 {
		t.Fatalf("%d pages materialized by reads", n)
	}
	if err := m.WriteU64(HeapBase+PageSize-4, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if n := m.materialized(); n != 2 {
		t.Fatalf("a straddling write materialized %d pages, want 2", n)
	}
}
