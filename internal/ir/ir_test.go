package ir

import (
	"math"
	"strings"
	"testing"
)

func TestValueConstructors(t *testing.T) {
	if v := R(3); !v.IsReg() || v.Reg != 3 {
		t.Errorf("R: %+v", v)
	}
	if v := CI(-7); v.Kind != VConstInt || v.Int != -7 {
		t.Errorf("CI: %+v", v)
	}
	if v := CF(2.5); v.Kind != VConstFloat || math.Float64frombits(uint64(v.Int)) != 2.5 {
		t.Errorf("CF: %+v", v)
	}
	if v := GV("g", 8); v.Kind != VGlobal || v.Sym != "g" || v.Int != 8 {
		t.Errorf("GV: %+v", v)
	}
	if v := FV("f"); v.Kind != VFunc || v.Sym != "f" {
		t.Errorf("FV: %+v", v)
	}
}

func TestMemTypeProperties(t *testing.T) {
	sizes := map[MemType]int64{
		MemI8: 1, MemU8: 1, MemI16: 2, MemU16: 2,
		MemI32: 4, MemU32: 4, MemF32: 4,
		MemI64: 8, MemF64: 8, MemPtr: 8,
	}
	for mt, want := range sizes {
		if mt.Size() != want {
			t.Errorf("%v.Size() = %d want %d", mt, mt.Size(), want)
		}
	}
	if MemPtr.Class() != ClassPtr || MemF32.Class() != ClassFloat || MemI8.Class() != ClassInt {
		t.Error("MemType.Class misclassifies")
	}
}

func TestNewRegTracksClasses(t *testing.T) {
	f := &Func{Name: "f"}
	r0 := f.NewReg(ClassInt)
	r1 := f.NewReg(ClassPtr)
	if r0 != 0 || r1 != 1 || f.NumRegs != 2 {
		t.Fatalf("regs: %d %d %d", r0, r1, f.NumRegs)
	}
	if f.RegClass[0] != ClassInt || f.RegClass[1] != ClassPtr {
		t.Fatal("classes not recorded")
	}
}

func TestModuleLookupAndLink(t *testing.T) {
	m1 := NewModule("a")
	m1.AddFunc(&Func{Name: "f"})
	m1.Globals = append(m1.Globals, &Global{Name: "g", Size: 8})

	m2 := NewModule("b")
	m2.AddFunc(&Func{Name: "h"})
	m2.Globals = append(m2.Globals, &Global{Name: "g", Size: 8}) // tentative dup

	if err := m1.Link(m2); err != nil {
		t.Fatal(err)
	}
	if m1.Lookup("h") == nil || m1.Lookup("f") == nil {
		t.Fatal("lookup after link failed")
	}
	if len(m1.Globals) != 1 {
		t.Fatalf("dup global not collapsed: %d", len(m1.Globals))
	}

	m3 := NewModule("c")
	m3.AddFunc(&Func{Name: "f"})
	if err := m1.Link(m3); err == nil {
		t.Fatal("duplicate function definition linked")
	}
}

func TestInstStringCoverage(t *testing.T) {
	insts := []Inst{
		{Kind: KConst, Dst: 0, A: CI(1)},
		{Kind: KBin, Dst: 1, Op: OpAdd, A: R(0), B: CI(2), IntWidth: 32, Signed: true},
		{Kind: KCmp, Dst: 2, Pred: PredLT, A: R(0), B: R(1)},
		{Kind: KLoad, Dst: 3, A: R(0), Mem: MemPtr},
		{Kind: KStore, A: R(0), B: R(3), Mem: MemI32},
		{Kind: KGEP, Dst: 4, A: R(0), B: R(1), Size: 4, C: CI(8)},
		{Kind: KCall, Dst: 5, Callee: FV("malloc"), Args: []Value{CI(8)},
			DstBase: NoReg, DstBound: NoReg},
		{Kind: KRet, HasVal: true, A: R(5)},
		{Kind: KCheck, A: R(0), Base: R(1), Bound: R(2), AccessSize: 4, CheckK: CheckStore},
		{Kind: KMetaLoad, A: R(0), DstBase: 6, DstBound: 7},
		{Kind: KMetaStore, A: R(0), Base: R(6), Bound: R(7)},
		{Kind: KMetaClear, A: R(0), B: CI(16)},
		{Kind: KBr, Target: 2},
		{Kind: KCondBr, A: R(2), Target: 1, Else: 2},
		{Kind: KUnreachable},
		{Kind: KAlloca, Dst: 8, Size: 32, Name: "buf", C: CI(0)},
		{Kind: KConv, Dst: 9, A: R(1), Mem: MemF64, ConvSrc: MemI64},
		{Kind: KUn, Dst: 10, Op: OpNeg, A: R(1)},
		{Kind: KMov, Dst: 11, A: R(10)},
	}
	for _, in := range insts {
		s := in.String()
		if s == "" {
			t.Errorf("empty render for kind %v", in.Kind)
		}
	}
	term := 0
	for _, in := range insts {
		if in.IsTerminator() {
			term++
		}
	}
	if term != 4 { // ret, br, condbr, unreachable
		t.Errorf("terminators = %d", term)
	}
}

func TestFuncAndModuleString(t *testing.T) {
	f := &Func{Name: "f", Params: []Param{{Name: "p", Class: ClassPtr, IsPtr: true}},
		Transformed: true, SBName: "_sb_f"}
	f.NewReg(ClassPtr)
	f.Blocks = []*Block{{Name: "entry", Insts: []Inst{{Kind: KRet}}}}
	m := NewModule("t")
	m.AddFunc(f)
	m.Globals = append(m.Globals, &Global{Name: "g", Size: 4, ReadOnly: true, ContainsPtr: true})
	s := m.String()
	for _, frag := range []string{"func f", "_sb_f", "global @g", "ro", "hasptr"} {
		if !strings.Contains(s, frag) {
			t.Errorf("module dump missing %q:\n%s", frag, s)
		}
	}
}

// TestCallShadowSlotsPrinted pins the ISSUE 6 print fix: a call's
// shadow-stack slots render explicitly — every slot the caller fills,
// keyed by argument index — with no silent truncation when the slot
// list is shorter than (or disjoint from) the argument list.
func TestCallShadowSlotsPrinted(t *testing.T) {
	in := Inst{Kind: KCall, Dst: 0, Callee: FV("sink"),
		DstBase: NoReg, DstBound: NoReg,
		Args: []Value{R(1), R(2), R(3)},
		Shadow: []ShadowSlot{
			{Arg: 2, Base: R(4), Bound: R(5)},
		}}
	s := in.String()
	if !strings.Contains(s, "shadow{2:[%4,%5]}") {
		t.Fatalf("shadow slot not printed explicitly: %q", s)
	}
	// No slots → no shadow clause, rather than an empty brace pair.
	in.Shadow = nil
	if s := in.String(); strings.Contains(s, "shadow") {
		t.Fatalf("slot-free call printed a shadow clause: %q", s)
	}
}
