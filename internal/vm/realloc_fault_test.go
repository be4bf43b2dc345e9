package vm

import (
	"errors"
	"testing"

	"softbound/internal/ir"
)

// Regression test (ISSUE 7): realloc used to discard the errors from the
// ReadBytes/WriteBytes pair that copies the old contents into the new
// block, silently returning a half-initialized block with full bounds. A
// copy that faults must surface as a typed memory-fault trap instead.
//
// Allocator blocks are always mapped in normal operation, so the test
// forges the inconsistency directly: it registers a "live" block whose
// recorded size extends past the mapped heap segment, making the copy's
// read fault.
func TestReallocCopyFaultPropagates(t *testing.T) {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	f.Blocks = []*ir.Block{{Insts: []ir.Inst{
		{Kind: ir.KRet, HasVal: true, A: ir.CI(0)},
	}}}
	v, err := New(buildModule(f), Config{})
	if err != nil {
		t.Fatal(err)
	}

	p := v.mem.heap.end - 16
	v.alloc.sizes[p] = 64 // claims 64 bytes; only 16 are mapped

	_, _, err = v.callBuiltin("realloc", nil, nil, []uint64{p, 64}, nil)
	if err == nil {
		t.Fatal("realloc with a faulting copy returned success")
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("realloc copy fault surfaced as %T (%v), want *FaultError", err, err)
	}
	if code := CodeOf(Classify(err)); code != TrapMemFault {
		t.Fatalf("trap code = %q, want %q", code, TrapMemFault)
	}
}
