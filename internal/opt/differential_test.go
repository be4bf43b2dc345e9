package opt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// Differential fuzzing at the IR level: random structured functions run
// through the VM unoptimized, block-local optimized, and globally
// optimized, asserting identical exit codes, traps, and check outcomes.
// This is the soundness gate for every pass in this package — including
// the CFG-based ones, which never see instrumented C otherwise.
//
// The generator keeps all memory accesses statically in bounds of the
// one global (DCE may delete a dead KLoad, so a faulting dead load would
// be a false divergence), but checks themselves may pass or fail — a
// trap is an outcome to preserve, not an error.

const (
	fuzzGlobalSize = 128
	// Register roles. r0..r5 accumulate; r6 holds freshly computed
	// addresses; r7/r8 receive metadata; loop counters are allocated
	// per loop above fuzzFixedRegs.
	fuzzAccums    = 6
	fuzzAddrReg   = 6
	fuzzMetaBase  = 7
	fuzzMetaBound = 8
	fuzzFixedRegs = 9
)

// fuzzBuilder grows one random function.
type fuzzBuilder struct {
	rng *rand.Rand
	f   *ir.Func
	cur int // block under construction
}

func (b *fuzzBuilder) emit(in ir.Inst) { blk := b.f.Blocks[b.cur]; blk.Insts = append(blk.Insts, in) }

func (b *fuzzBuilder) acc() ir.Reg { return ir.Reg(b.rng.Intn(fuzzAccums)) }

// operand is a random accumulator or small constant.
func (b *fuzzBuilder) operand() ir.Value {
	if b.rng.Intn(3) == 0 {
		return ir.CI(int64(b.rng.Intn(64)))
	}
	return ir.R(b.acc())
}

// gOff is a random aligned in-bounds offset into the global.
func (b *fuzzBuilder) gOff() int64 { return 8 * int64(b.rng.Intn(fuzzGlobalSize/8-1)) }

// straightOps emits n random side-effect-bearing or arithmetic
// instructions into the current block.
func (b *fuzzBuilder) straightOps(n int) {
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpAnd, ir.OpOr}
	for i := 0; i < n; i++ {
		switch b.rng.Intn(10) {
		case 0, 1: // arithmetic
			b.emit(ir.Inst{Kind: ir.KBin, Dst: b.acc(), Op: ops[b.rng.Intn(len(ops))],
				A: b.operand(), B: b.operand()})
		case 2: // comparison
			b.emit(ir.Inst{Kind: ir.KCmp, Dst: b.acc(), Pred: ir.Pred(b.rng.Intn(6)),
				A: b.operand(), B: b.operand(), Signed: true})
		case 3: // store to the global
			b.emit(ir.Inst{Kind: ir.KStore, A: ir.GV("g", b.gOff()), B: b.operand(),
				Mem: ir.MemI64})
		case 4: // load from the global
			b.emit(ir.Inst{Kind: ir.KLoad, Dst: b.acc(), A: ir.GV("g", b.gOff()),
				Mem: ir.MemI64})
		case 5: // gep + check + access through the address register
			off := b.gOff()
			b.emit(ir.Inst{Kind: ir.KGEP, Dst: fuzzAddrReg, A: ir.GV("g", 0),
				B: ir.CI(off / 8), Size: 8})
			b.emit(ir.Inst{Kind: ir.KCheck, A: ir.R(fuzzAddrReg),
				Base: ir.GV("g", 0), Bound: ir.GV("g", fuzzGlobalSize),
				AccessSize: 8, CheckK: ir.CheckLoad})
			if b.rng.Intn(2) == 0 {
				b.emit(ir.Inst{Kind: ir.KLoad, Dst: b.acc(), A: ir.R(fuzzAddrReg), Mem: ir.MemI64})
			} else {
				b.emit(ir.Inst{Kind: ir.KStore, A: ir.R(fuzzAddrReg), B: b.operand(), Mem: ir.MemI64})
			}
		case 6: // check with a random (possibly out-of-bounds) constant slot
			off := int64(b.rng.Intn(fuzzGlobalSize + 16))
			b.emit(ir.Inst{Kind: ir.KCheck, A: ir.GV("g", off),
				Base: ir.GV("g", 0), Bound: ir.GV("g", fuzzGlobalSize),
				AccessSize: 8, CheckK: ir.CheckStore})
		case 7: // metadata store
			b.emit(ir.Inst{Kind: ir.KMetaStore, A: ir.GV("g", b.gOff()),
				SrcBase: b.operand(), SrcBound: b.operand()})
		case 8: // metadata load folded into an accumulator
			b.emit(ir.Inst{Kind: ir.KMetaLoad, A: ir.GV("g", b.gOff()),
				DstBaseR: fuzzMetaBase, DstBndR: fuzzMetaBound})
			b.emit(ir.Inst{Kind: ir.KBin, Dst: b.acc(), Op: ir.OpAdd,
				A: ir.R(b.acc()), B: ir.R(fuzzMetaBase)})
			b.emit(ir.Inst{Kind: ir.KBin, Dst: b.acc(), Op: ir.OpXor,
				A: ir.R(b.acc()), B: ir.R(fuzzMetaBound)})
		default: // duplicated check pair (elimination fodder)
			k := b.gOff()
			c := ir.Inst{Kind: ir.KCheck, A: ir.GV("g", k), Base: ir.GV("g", 0),
				Bound: ir.GV("g", fuzzGlobalSize), AccessSize: 8, CheckK: ir.CheckLoad}
			b.emit(c)
			b.emit(c)
		}
	}
}

// diamond emits an if/else over a random accumulator.
func (b *fuzzBuilder) diamond() {
	thenB := b.f.NewBlock("then")
	elseB := b.f.NewBlock("else")
	join := b.f.NewBlock("join")
	b.emit(ir.Inst{Kind: ir.KCondBr, A: ir.R(b.acc()), Target: thenB, Else: elseB})
	b.cur = thenB
	b.straightOps(1 + b.rng.Intn(3))
	b.emit(ir.Inst{Kind: ir.KBr, Target: join})
	b.cur = elseB
	b.straightOps(1 + b.rng.Intn(3))
	b.emit(ir.Inst{Kind: ir.KBr, Target: join})
	b.cur = join
}

// loop emits a counted loop with a dedicated counter register the body
// never touches.
func (b *fuzzBuilder) loop() {
	counter := b.f.NewReg(ir.ClassInt)
	header := b.f.NewBlock("loop")
	exit := b.f.NewBlock("exit")
	b.emit(ir.Inst{Kind: ir.KConst, Dst: counter, A: ir.CI(int64(2 + b.rng.Intn(4)))})
	b.emit(ir.Inst{Kind: ir.KBr, Target: header})
	b.cur = header
	b.straightOps(1 + b.rng.Intn(4))
	b.emit(ir.Inst{Kind: ir.KBin, Dst: counter, Op: ir.OpSub, A: ir.R(counter), B: ir.CI(1)})
	b.emit(ir.Inst{Kind: ir.KCondBr, A: ir.R(counter), Target: header, Else: exit})
	b.cur = exit
}

// genModule builds a random single-function module.
func genModule(rng *rand.Rand) *ir.Module {
	f := &ir.Func{Name: "main", HasRet: true, RetClass: ir.ClassInt}
	for i := 0; i < fuzzFixedRegs; i++ {
		f.NewReg(ir.ClassInt)
	}
	entry := f.NewBlock("entry")
	b := &fuzzBuilder{rng: rng, f: f, cur: entry}
	// Deterministic accumulator seed.
	for i := 0; i < fuzzAccums; i++ {
		b.emit(ir.Inst{Kind: ir.KConst, Dst: ir.Reg(i), A: ir.CI(int64(i * 17))})
	}
	for seg, nSeg := 0, 2+rng.Intn(5); seg < nSeg; seg++ {
		switch rng.Intn(4) {
		case 0:
			b.diamond()
		case 1:
			b.loop()
		default:
			b.straightOps(2 + rng.Intn(5))
		}
	}
	// Fold every accumulator plus a final metadata lookup into r0.
	b.emit(ir.Inst{Kind: ir.KMetaLoad, A: ir.GV("g", 0),
		DstBaseR: fuzzMetaBase, DstBndR: fuzzMetaBound})
	for i := 1; i < fuzzAccums; i++ {
		b.emit(ir.Inst{Kind: ir.KBin, Dst: 0, Op: ir.OpAdd, A: ir.R(0), B: ir.R(ir.Reg(i))})
	}
	b.emit(ir.Inst{Kind: ir.KBin, Dst: 0, Op: ir.OpXor, A: ir.R(0), B: ir.R(fuzzMetaBase)})
	b.emit(ir.Inst{Kind: ir.KBin, Dst: 0, Op: ir.OpAdd, A: ir.R(0), B: ir.R(fuzzMetaBound)})
	b.emit(ir.Inst{Kind: ir.KRet, HasVal: true, A: ir.R(0)})

	m := ir.NewModule("fuzz")
	m.AddFunc(f)
	m.Globals = append(m.Globals, &ir.Global{Name: "g", Size: fuzzGlobalSize, Align: 8})
	return m
}

// cloneModule deep-copies a module so one variant can be optimized while
// another runs pristine.
func cloneModule(m *ir.Module) *ir.Module {
	out := ir.NewModule(m.Name)
	for _, g := range m.Globals {
		cg := *g
		cg.Init = append([]byte(nil), g.Init...)
		cg.PtrInits = append([]ir.PtrInit(nil), g.PtrInits...)
		out.Globals = append(out.Globals, &cg)
	}
	for _, f := range m.Funcs {
		cf := *f
		cf.Params = append([]ir.Param(nil), f.Params...)
		cf.ParamRegs = append([]ir.Reg(nil), f.ParamRegs...)
		cf.RegClass = append([]ir.Class(nil), f.RegClass...)
		cf.Allocas = append([]ir.AllocaSlot(nil), f.Allocas...)
		cf.ClearSlots = append([]ir.AllocaSlot(nil), f.ClearSlots...)
		cf.Blocks = nil
		for _, blk := range f.Blocks {
			cb := &ir.Block{Name: blk.Name}
			for _, in := range blk.Insts {
				ci := in
				ci.Args = append([]ir.Value(nil), in.Args...)
				ci.Shadow = append([]ir.ShadowSlot(nil), in.Shadow...)
				cb.Insts = append(cb.Insts, ci)
			}
			cf.Blocks = append(cf.Blocks, cb)
		}
		out.AddFunc(&cf)
	}
	return out
}

// fuzzOutcome is the observable result of one run.
type fuzzOutcome struct {
	exit    int64
	errKind string // "", "spatial:...", "runtime:..."
}

func runFuzzModule(m *ir.Module) fuzzOutcome {
	machine, err := vm.New(m, vm.Config{
		Mode:      vm.CheckFull,
		Meta:      meta.NewShadowSpace(false),
		StepLimit: 500_000,
	})
	if err != nil {
		return fuzzOutcome{errKind: "new:" + err.Error()}
	}
	exit, runErr := machine.Run()
	o := fuzzOutcome{exit: exit}
	if runErr != nil {
		// The VM wraps errors with the faulting instruction position,
		// which legitimately moves under optimization; compare the
		// classified payload instead of the message.
		var sv *vm.SpatialViolation
		var re *vm.RuntimeError
		switch {
		case errors.As(runErr, &sv):
			o.errKind = fmt.Sprintf("spatial:%v ptr=%d base=%d bound=%d size=%d",
				sv.Kind, sv.Ptr, sv.Base, sv.Bound, sv.Size)
		case errors.As(runErr, &re):
			o.errKind = "runtime:" + re.Msg
		default:
			o.errKind = "other:" + runErr.Error()
		}
	}
	return o
}

func TestDifferentialOptIR(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		orig := genModule(rng)

		local := cloneModule(orig)
		global := cloneModule(orig)
		Optimize(local)
		rGlobal := OptimizeWith(global, Options{Global: true})

		want := runFuzzModule(orig)
		if got := runFuzzModule(local); got != want {
			t.Fatalf("seed %d: local opt diverged: %+v != %+v", seed, got, want)
		}
		if got := runFuzzModule(global); got != want {
			t.Fatalf("seed %d: global opt diverged: %+v != %+v (result %+v)",
				seed, got, want, rGlobal)
		}
		// Optimizing an already-optimized module must be a fixpoint
		// behaviorally as well.
		OptimizeWith(global, Options{Global: true})
		if got := runFuzzModule(global); got != want {
			t.Fatalf("seed %d: re-optimization diverged: %+v != %+v", seed, got, want)
		}
	}
}
