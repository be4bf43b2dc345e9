package vm

import (
	"fmt"

	"softbound/internal/ir"
	"softbound/internal/meta"
)

// This file implements the compiled engine (InterpCompiled): a threaded-
// code tier above the fast interpreter. Each decoded function body
// ([]dinst, decode.go — operands stay pre-resolved, nothing is decoded
// twice) is lowered once into chains of Go closures, one chain per
// *span*. A span is a maximal straight-line run of decoded instructions
// ending at a control transfer (branch, call, return, trap sentinel);
// every dynamic resume point — block entry, the instruction after a
// call, a longjmp target — is a span start, so the engine only ever
// enters code at span boundaries.
//
// Within a span there is no dispatch at all: every closure does its work
// and directly calls the next closure it captured at compile time. The
// step/deadline clock and the Insts/SimInsts counters are reconciled at
// span entry — the span's total step weight and its fixed statistics
// contributions are applied up front, and the rare fallible operation
// carries compile-time "undo" constants that subtract the unexecuted
// tail at its failure site, reproducing the fast engine's per-component
// accounting bit for bit. When the remaining step budget cannot cover a
// whole span, the engine flushes and delegates the rest of the run to
// loopFast, whose per-instruction countdown (and stepLimited's partial
// execution of fused superinstructions) lands the step-limit trap at
// exactly the reference position.
//
// The call ABI (execCallFast, shadow windows), temporal checkAccess, and
// the trap taxonomy are shared verbatim with the fast engine, so the
// engine-differential equivalence contract carries over unchanged.
//
// Compiled programs capture only module-static data (register numbers,
// immediates, decoded instruction pointers); all VM-specific state
// (checker hooks, metadata facility, cost overrides) is read through the
// per-run context at execution time. The compiled form is therefore
// shareable across VMs and is cached on the *ir.Module
// (Module.Compiled) next to the decoded form, with the same singleflight
// contract — one compile serves the serve compile cache, the parallel
// bench harness, and the soak matrix.

// cop is one compiled operation. It receives the per-run context and the
// current frame's register file and returns the next span to enter
// (direct threading: branch targets are captured as span pointers, so
// the driver loop never consults the span table between branches), or
// nil when the straight line ends — either the active frame changed (a
// call or return ran) or a failure was recorded in c.err.
type cop func(c *cctx, regs []uint64) *cspan

// cctx is the per-run execution context threaded through every closure.
// One is allocated per loopCompiled invocation (a constant, not
// per-call, cost — the steady-state call path stays allocation-free).
type cctx struct {
	v   *VM
	st  *fastState
	f   *frame
	err error
}

// fail is the shared mid-span failure path: pin the faulting
// instruction, subtract the pre-added statistics the failure point never
// reached, and hand the wrapped error to the driver.
func (c *cctx) fail(fip int, d *dinst, undoInsts, undoSim uint64, err error) *cspan {
	c.f.fip = fip
	c.st.insts -= undoInsts
	c.st.sim -= undoSim
	c.err = wrapFastErr(c.f, d, err)
	return nil
}

// cspan is one compiled straight-line run. steps is the span's total
// step weight (sum of component nsteps); fixedInsts/fixedSim are the
// statistics contributions applied at span entry; fip is the flat index
// of the span's first instruction (where the clock flushes attribute
// traps when the span cannot be entered).
type cspan struct {
	steps      int64
	fixedInsts uint64
	fixedSim   uint64
	fip        int
	head       cop
}

// cfunc is a compiled function body: the decoded form it was lowered
// from plus the span table, indexed by flat instruction index (non-nil
// exactly at span starts).
type cfunc struct {
	df     *dfunc
	spanAt []*cspan
}

// cprogram is a compiled module.
type cprogram struct {
	funcs map[*ir.Func]*cfunc
}

// isSpanEnd reports whether op terminates a span (control leaves the
// straight line, or execution cannot continue past it).
func isSpanEnd(op dOp) bool {
	switch op {
	case dBr, dCondBr, dCall, dRet, dUnreachable, dFellOff, dBad:
		return true
	}
	return false
}

// compileProgram lowers a decoded program into its compiled form. It is
// pure with respect to the module, like decodeModule, so the result is
// shareable across VMs.
func compileProgram(dp *program) *cprogram {
	cp := &cprogram{funcs: make(map[*ir.Func]*cfunc, len(dp.funcs))}
	for fn, df := range dp.funcs {
		cp.funcs[fn] = compileFunc(df)
	}
	return cp
}

// compileFunc builds the span table for one decoded body. Span starts
// are block entries plus the instruction after every call (the dynamic
// resume points: frame entry, post-builtin and post-call continuation,
// longjmp's checkpoint+1, hijack re-entry at 0). Spans partition the
// code exactly: every block ends with a terminator or the dFellOff
// sentinel, and the instruction before any start is a call or a
// terminator, so no span straddles a start.
func compileFunc(df *dfunc) *cfunc {
	cf := &cfunc{df: df, spanAt: make([]*cspan, len(df.code))}
	if len(df.code) == 0 {
		return cf
	}
	start := make([]bool, len(df.code)+1)
	for _, s := range df.blockStart {
		start[s] = true
	}
	for i := range df.code {
		if df.code[i].op == dCall {
			start[i+1] = true
		}
	}
	// Two passes: allocate every span object first so branch compilation
	// can capture target spans directly (direct threading), then fill in
	// the closure chains.
	type spanRange struct{ start, end int }
	var spans []spanRange
	for i := 0; i < len(df.code); {
		end := i
		for !isSpanEnd(df.code[end].op) {
			end++
		}
		cf.spanAt[i] = &cspan{fip: i}
		spans = append(spans, spanRange{i, end})
		i = end + 1
	}
	for _, r := range spans {
		compileSpan(cf, r.start, r.end)
	}
	return cf
}

// compileSpan lowers code[start..end] (end = the span's control
// transfer) into a backward-composed closure chain filled into the
// pre-allocated span object: the terminal op compiles first, then each
// earlier op captures its successor and calls it directly.
// tailInsts/tailSim accumulate the fixed contributions of
// already-compiled (later) ops; each fallible op captures them as its
// undo constants.
func compileSpan(cf *cfunc, start, end int) {
	df := cf.df
	code := df.code
	sp := cf.spanAt[start]
	for j := start; j <= end; j++ {
		sp.steps += int64(code[j].nsteps)
	}

	var next cop
	j := end

	// Compile-tier fusions at the span terminal (profile-guided: see
	// DESIGN.md "Profile-guided fusion"). A compare feeding the span's
	// conditional branch collapses into one compare-and-branch closure
	// (the compare result is still written — later blocks may read it);
	// an induction add feeding the unconditional back edge collapses the
	// same way.
	if end > start && code[end].op == dCondBr &&
		code[end-1].op == dCmp && code[end].a.reg == code[end-1].dst {
		next = compileCmpBr(cf, &code[end-1], &code[end])
		sp.fixedInsts += 2
		sp.fixedSim += costALU + costCondBr
		j = end - 2
	} else if end > start && code[end].op == dBr {
		if op := compileArithBr(cf, &code[end-1], &code[end]); op != nil {
			next = op
			sp.fixedInsts += 2
			sp.fixedSim += costALU + costBr
			j = end - 2
		}
	}

	for ; j >= start; j-- {
		if j > start {
			if op, pairInsts, pairSim := compilePair(df, j-1, j, next); op != nil {
				next = op
				sp.fixedInsts += pairInsts
				sp.fixedSim += pairSim
				j-- // the pair consumed two instructions
				continue
			}
		}
		op, ownInsts, ownSim := compileInst(cf, j, next, sp.fixedInsts, sp.fixedSim)
		next = op
		sp.fixedInsts += ownInsts
		sp.fixedSim += ownSim
	}
	sp.head = next
}

// compileCmpBr fuses dCmp + dCondBr into one terminal closure. The
// predicates that close loops (signed/unsigned less-than, equality) get
// fully inlined compare-and-branch bodies with no kernel call — the
// captured-kernel indirection showed up as its own frame on the hottest
// edge of every benchmark loop. The rest go through the kernel.
func compileCmpBr(cf *cfunc, cmp, br *dinst) cop {
	dst := cmp.dst
	t, e := cf.spanAt[br.target], cf.spanAt[br.elseT]
	in := cmp.src
	if cmp.a.reg >= 0 && cmp.b.reg < 0 {
		a, imm := cmp.a.reg, cmp.b.imm
		switch {
		case in.Pred == ir.PredLT && in.Signed:
			si := int64(imm)
			return func(c *cctx, regs []uint64) *cspan {
				if int64(regs[a]) < si {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		case in.Pred == ir.PredLT:
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] < imm {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		case in.Pred == ir.PredEQ:
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] == imm {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		case in.Pred == ir.PredNE:
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] != imm {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		}
	}
	if cmp.a.reg >= 0 && cmp.b.reg >= 0 {
		a, b := cmp.a.reg, cmp.b.reg
		switch {
		case in.Pred == ir.PredLT && in.Signed:
			return func(c *cctx, regs []uint64) *cspan {
				if int64(regs[a]) < int64(regs[b]) {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		case in.Pred == ir.PredLT:
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] < regs[b] {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		case in.Pred == ir.PredEQ:
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] == regs[b] {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		case in.Pred == ir.PredNE:
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] != regs[b] {
					regs[dst] = 1
					return t
				}
				regs[dst] = 0
				return e
			}
		}
	}
	k := cmpKernel(in)
	if k == nil {
		k = func(a, b uint64) uint64 { return cmpOp(a, b, in) }
	}
	if cmp.a.reg >= 0 && cmp.b.reg >= 0 {
		a, b := cmp.a.reg, cmp.b.reg
		return func(c *cctx, regs []uint64) *cspan {
			r := k(regs[a], regs[b])
			regs[dst] = r
			if r != 0 {
				return t
			}
			return e
		}
	}
	if cmp.a.reg >= 0 {
		a, imm := cmp.a.reg, cmp.b.imm
		return func(c *cctx, regs []uint64) *cspan {
			r := k(regs[a], imm)
			regs[dst] = r
			if r != 0 {
				return t
			}
			return e
		}
	}
	av, bv := cmp.a, cmp.b
	return func(c *cctx, regs []uint64) *cspan {
		r := k(av.get(regs), bv.get(regs))
		regs[dst] = r
		if r != 0 {
			return t
		}
		return e
	}
}

// compileArithBr fuses the loop back-edge shape — a full-width induction
// add feeding the span's unconditional branch — into one closure.
// Returns nil when the preceding instruction is not that shape.
func compileArithBr(cf *cfunc, ar, br *dinst) cop {
	switch ar.op {
	case dAdd:
	case dBin:
		in := ar.src
		if in.Op != ir.OpAdd || (in.IntWidth != 0 && in.IntWidth < 64) {
			return nil
		}
	default:
		return nil
	}
	dst := ar.dst
	t := cf.spanAt[br.target]
	if ar.a.reg >= 0 && ar.b.reg < 0 {
		a, imm := ar.a.reg, ar.b.imm
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = regs[a] + imm
			return t
		}
	}
	if ar.a.reg >= 0 && ar.b.reg >= 0 {
		a, b := ar.a.reg, ar.b.reg
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = regs[a] + regs[b]
			return t
		}
	}
	return nil
}

// compilePair lowers profile-guided two-instruction fusions inside a
// span: a GEP feeding a metadata load (the shadow-space probe pattern,
// where the address arithmetic is immediately consumed by the table
// lookup), and a full-width multiply feeding an immediate mask (the
// strided index wrapped into a power-of-two window). Returns a nil cop
// when no fusion applies.
func compilePair(df *dfunc, i, j int, next cop) (cop, uint64, uint64) {
	code := df.code
	if op := compileScaleMask(&code[i], &code[j], next); op != nil {
		return op, 2, 2 * costALU
	}
	g, m := &code[i], &code[j]
	if g.op != dGEP || m.op != dMetaLoad || g.dst < 0 || m.a.reg != g.dst {
		return nil, 0, 0
	}
	gdst, size, off := g.dst, uint64(g.size), uint64(g.off)
	ga, gb := g.a, g.b
	dst, dst2, dst3, dst4 := m.dst, m.dst2, m.dst3, m.dst4
	temporal := dst3 != ir.NoReg
	return func(c *cctx, regs []uint64) *cspan {
		v := c.v
		addr := ga.get(regs) + gb.get(regs)*size + off
		regs[gdst] = addr
		e := v.fac.Lookup(addr)
		regs[dst] = e.Base
		regs[dst2] = e.Bound
		if temporal {
			regs[dst3] = e.Key
			regs[dst4] = e.Lock
		}
		v.stats.MetaLoads++
		c.st.sim += v.lookupCost
		return next(c, regs)
	}, 2, costALU
}

// compileScaleMask fuses a full-width reg*imm multiply whose result is
// immediately masked by an immediate (the scaled-index-into-window
// shape). Both destinations are still written — the intermediate may be
// live past the pair.
func compileScaleMask(m, n *dinst, next cop) cop {
	if !isFullBin(m, ir.OpMul) || !isFullBin(n, ir.OpAnd) {
		return nil
	}
	if m.a.reg < 0 || m.b.reg >= 0 || n.b.reg >= 0 || n.a.reg != m.dst {
		return nil
	}
	d1, a, f := m.dst, m.a.reg, m.b.imm
	d2, mask := n.dst, n.b.imm
	return func(c *cctx, regs []uint64) *cspan {
		t := regs[a] * f
		regs[d1] = t
		regs[d2] = t & mask
		return next(c, regs)
	}
}

// isFullBin reports whether d computes op at full 64-bit width (either
// as a decoder-specialized arithmetic op or a dBin with identity wrap).
func isFullBin(d *dinst, op ir.Op) bool {
	switch {
	case d.op == dAdd:
		return op == ir.OpAdd
	case d.op == dSub:
		return op == ir.OpSub
	case d.op == dMul:
		return op == ir.OpMul
	case d.op != dBin:
		return false
	}
	in := d.src
	return in.Op == op && (in.IntWidth == 0 || in.IntWidth >= 64)
}

// cmpKernel returns a direct closure for an integer comparison
// predicate, or nil for the float predicates (generic cmpOp fallback).
// Bodies replicate cmpOp exactly.
func cmpKernel(in *ir.Inst) func(a, b uint64) uint64 {
	signed := in.Signed
	switch in.Pred {
	case ir.PredEQ:
		return func(a, b uint64) uint64 { return b2u(a == b) }
	case ir.PredNE:
		return func(a, b uint64) uint64 { return b2u(a != b) }
	case ir.PredLT:
		if signed {
			return func(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) }
		}
		return func(a, b uint64) uint64 { return b2u(a < b) }
	case ir.PredLE:
		if signed {
			return func(a, b uint64) uint64 { return b2u(int64(a) <= int64(b)) }
		}
		return func(a, b uint64) uint64 { return b2u(a <= b) }
	case ir.PredGT:
		if signed {
			return func(a, b uint64) uint64 { return b2u(int64(a) > int64(b)) }
		}
		return func(a, b uint64) uint64 { return b2u(a > b) }
	case ir.PredGE:
		if signed {
			return func(a, b uint64) uint64 { return b2u(int64(a) >= int64(b)) }
		}
		return func(a, b uint64) uint64 { return b2u(a >= b) }
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// binKernel returns a direct closure for an infallible integer binary
// op, or nil when the op needs the generic path (div/rem can trap,
// floats are rare). Bodies replicate binOp + wrapInt exactly; wrapInt is
// small enough to inline into the closure.
func binKernel(in *ir.Inst) func(a, b uint64) uint64 {
	w, s := in.IntWidth, in.Signed
	switch in.Op {
	case ir.OpAdd:
		return func(a, b uint64) uint64 { return wrapInt(a+b, w, s) }
	case ir.OpSub:
		return func(a, b uint64) uint64 { return wrapInt(a-b, w, s) }
	case ir.OpMul:
		return func(a, b uint64) uint64 { return wrapInt(a*b, w, s) }
	case ir.OpAnd:
		return func(a, b uint64) uint64 { return wrapInt(a&b, w, s) }
	case ir.OpOr:
		return func(a, b uint64) uint64 { return wrapInt(a|b, w, s) }
	case ir.OpXor:
		return func(a, b uint64) uint64 { return wrapInt(a^b, w, s) }
	case ir.OpShl:
		return func(a, b uint64) uint64 { return wrapInt(a<<(b&63), w, s) }
	case ir.OpShr:
		if s {
			return func(a, b uint64) uint64 {
				return wrapInt(uint64(int64(a)>>(b&63)), w, s)
			}
		}
		width := w
		if width == 0 {
			width = 64
		}
		return func(a, b uint64) uint64 {
			if width < 64 {
				a &= (uint64(1) << uint(width)) - 1
			}
			return wrapInt(a>>(b&63), w, s)
		}
	}
	return nil
}

// compileInst lowers one decoded instruction into a closure, returning
// its fixed Insts/SimInsts contributions (pre-added at span entry).
// tailInsts/tailSim are the fixed contributions of the ops after it in
// the span — the amounts a failure here must subtract on top of its own
// unreached portion. The accounting mirrors fastexec.go case by case.
func compileInst(cf *cfunc, fip int, next cop, tailInsts, tailSim uint64) (cop, uint64, uint64) {
	df := cf.df
	code := df.code
	d := &code[fip]
	fname := df.fn.Name
	switch d.op {
	case dConst:
		dst, imm := d.dst, d.a.imm
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = imm
			return next(c, regs)
		}, 1, costALU

	case dMov:
		dst, src := d.dst, d.a.reg
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = regs[src]
			return next(c, regs)
		}, 1, costALU

	case dAdd:
		return compileAddOp(d, next), 1, costALU
	case dSub:
		return compileSubOp(d, next), 1, costALU
	case dMul:
		return compileMulOp(d, next), 1, costALU

	case dBin:
		if op := compileBinFull(d, next); op != nil {
			return op, 1, costALU
		}
		if k := binKernel(d.src); k != nil {
			return compileArith(d, next, k), 1, costALU
		}
		dst, av, bv, src := d.dst, d.a, d.b, d.src
		undoI, undoS := tailInsts, tailSim+costALU
		return func(c *cctx, regs []uint64) *cspan {
			r, err := binOp(av.get(regs), bv.get(regs), src, fname)
			if err != nil {
				return c.fail(fip, d, undoI, undoS, err)
			}
			regs[dst] = r
			return next(c, regs)
		}, 1, costALU

	case dUn:
		dst, av, src := d.dst, d.a, d.src
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = unOp(regs[dst], av.get(regs), src)
			return next(c, regs)
		}, 1, costALU

	case dCmp:
		if k := cmpKernel(d.src); k != nil {
			return compileArith(d, next, k), 1, costALU
		}
		dst, src := d.dst, d.src
		av, bv := d.a, d.b
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = cmpOp(av.get(regs), bv.get(regs), src)
			return next(c, regs)
		}, 1, costALU

	case dConv:
		dst, av, src := d.dst, d.a, d.src
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = execConv(av.get(regs), src)
			return next(c, regs)
		}, 1, costALU

	case dAlloca:
		dst, off, size := d.dst, uint64(d.off), uint64(d.size)
		return func(c *cctx, regs []uint64) *cspan {
			addr := c.f.fp + off
			regs[dst] = addr
			if ck := c.v.cfg.Checker; ck != nil {
				ck.OnAlloc(addr, size, "stack")
			}
			return next(c, regs)
		}, 1, costALU

	case dLoad:
		dst, av, mem := d.dst, d.a, d.mem
		msize := uint64(mem.Size())
		isPtr := mem == ir.MemPtr
		wide := mem64(mem)
		undoI, undoS := tailInsts, tailSim+costMem
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			addr := av.get(regs)
			if ck := v.cfg.Checker; ck != nil {
				if err := ck.OnLoad(addr, msize); err != nil {
					return c.fail(fip, d, undoI, undoS, err)
				}
			}
			var val uint64
			var err error
			if wide {
				val, err = v.mem.ReadU64(addr)
			} else {
				val, err = v.loadMem(addr, mem)
			}
			if err != nil {
				return c.fail(fip, d, undoI, undoS, err)
			}
			regs[dst] = val
			v.stats.Loads++
			if isPtr {
				v.stats.PtrLoads++
			}
			return next(c, regs)
		}, 1, costMem

	case dStore:
		av, bv, mem := d.a, d.b, d.mem
		msize := uint64(mem.Size())
		isPtr := mem == ir.MemPtr
		wide := mem64(mem)
		undoI, undoS := tailInsts, tailSim+costMem
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			addr := av.get(regs)
			if ck := v.cfg.Checker; ck != nil {
				if err := ck.OnStore(addr, msize); err != nil {
					return c.fail(fip, d, undoI, undoS, err)
				}
			}
			val := bv.get(regs)
			var err error
			if wide {
				err = v.mem.WriteU64(addr, val)
			} else {
				err = v.storeMem(addr, val, mem)
			}
			if err != nil {
				return c.fail(fip, d, undoI, undoS, err)
			}
			v.stats.Stores++
			if isPtr {
				v.stats.PtrStores++
				if pf := v.cfg.PtrStoreFault; pf != nil {
					if mask := pf(addr, val); mask != 0 {
						_ = v.mem.WriteU64(addr, val^mask)
					}
				}
			}
			return next(c, regs)
		}, 1, costMem

	case dGEP:
		dst, size, off := d.dst, uint64(d.size), uint64(d.off)
		if d.a.reg >= 0 && d.b.reg >= 0 {
			a, b := d.a.reg, d.b.reg
			return func(c *cctx, regs []uint64) *cspan {
				regs[dst] = regs[a] + regs[b]*size + off
				return next(c, regs)
			}, 1, costALU
		}
		if d.a.reg < 0 && d.b.reg >= 0 {
			// Globals decode to absolute addresses, so a constant base
			// indexed by a register is the dominant array-access shape.
			base, b := d.a.imm, d.b.reg
			return func(c *cctx, regs []uint64) *cspan {
				regs[dst] = base + regs[b]*size + off
				return next(c, regs)
			}, 1, costALU
		}
		av, bv := d.a, d.b
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = av.get(regs) + bv.get(regs)*size + off
			return next(c, regs)
		}, 1, costALU

	case dCheck:
		av, basev, bndv := d.a, d.base, d.bnd
		undoI, undoS := tailInsts, tailSim
		if !d.tmeta {
			// Non-temporal check inlined: replicates checkAccess with
			// tmeta=false (counters first — a failing check still counts).
			asize, kind := d.asize, d.checkK
			incLoad, incStore := kind == ir.CheckLoad, kind == ir.CheckStore
			return func(c *cctx, regs []uint64) *cspan {
				v := c.v
				ptr := av.get(regs)
				base := basev.get(regs)
				bound := bndv.get(regs)
				v.stats.Checks++
				v.stats.SimInsts += v.cfg.CheckCost
				if incLoad {
					v.stats.LoadChecks++
				} else if incStore {
					v.stats.StoreChecks++
				}
				if ptr < base || ptr+asize > bound {
					return c.fail(fip, d, undoI, undoS, &SpatialViolation{Kind: kind,
						Ptr: ptr, Base: base, Bound: bound, Size: asize, Func: fname})
				}
				return next(c, regs)
			}, 1, 0
		}
		return func(c *cctx, regs []uint64) *cspan {
			if err := c.v.fastCheck(fname, d,
				av.get(regs), basev.get(regs), bndv.get(regs), regs); err != nil {
				return c.fail(fip, d, undoI, undoS, err)
			}
			return next(c, regs)
		}, 1, 0

	case dCheckCall:
		av, basev, bndv := d.a, d.base, d.bnd
		undoI, undoS := tailInsts, tailSim
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			ptr := av.get(regs)
			base := basev.get(regs)
			bound := bndv.get(regs)
			v.stats.Checks++
			v.stats.SimInsts += v.cfg.CheckCost
			v.stats.CallChecks++
			if base != ptr || bound != ptr || v.funcByAddr(ptr) == nil {
				return c.fail(fip, d, undoI, undoS, &SpatialViolation{Kind: ir.CheckCall,
					Ptr: ptr, Base: base, Bound: bound, Func: fname})
			}
			return next(c, regs)
		}, 1, 0

	case dMetaLoad:
		av := d.a
		dst, dst2, dst3, dst4 := d.dst, d.dst2, d.dst3, d.dst4
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			addr := av.get(regs)
			e := v.fac.Lookup(addr)
			regs[dst] = e.Base
			regs[dst2] = e.Bound
			if dst3 != ir.NoReg {
				regs[dst3] = e.Key
				regs[dst4] = e.Lock
			}
			v.stats.MetaLoads++
			c.st.sim += v.lookupCost
			return next(c, regs)
		}, 1, 0

	case dMetaStore:
		av, basev, bndv := d.a, d.base, d.bnd
		tmeta, keyv, lockv := d.tmeta, d.key, d.lock
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			addr := av.get(regs)
			e := meta.Entry{Base: basev.get(regs), Bound: bndv.get(regs)}
			if tmeta {
				e.Key, e.Lock = keyv.get(regs), lockv.get(regs)
			}
			v.fac.Update(addr, e)
			v.stats.MetaStores++
			c.st.sim += v.updateCost
			return next(c, regs)
		}, 1, 0

	case dMetaClear:
		av, bv := d.a, d.b
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			addr := av.get(regs)
			size := bv.get(regs)
			v.fac.Clear(addr, size)
			v.stats.MetaClears++
			c.st.sim += 2 * (size/8 + 1)
			return next(c, regs)
		}, 1, 0

	case dBr:
		t := cf.spanAt[d.target]
		return func(c *cctx, regs []uint64) *cspan {
			return t
		}, 1, costBr

	case dCondBr:
		t, e := cf.spanAt[d.target], cf.spanAt[d.elseT]
		if d.a.reg >= 0 {
			a := d.a.reg
			return func(c *cctx, regs []uint64) *cspan {
				if regs[a] != 0 {
					return t
				}
				return e
			}, 1, costCondBr
		}
		av := d.a
		return func(c *cctx, regs []uint64) *cspan {
			if av.get(regs) != 0 {
				return t
			}
			return e
		}, 1, costCondBr

	case dCall:
		// execCallFast does its own Insts/SimInsts accounting and flushes
		// before builtins, exactly as under the fast engine; the span
		// contributes nothing up front. The call terminates its span, so
		// by the time it runs every pre-deducted step has executed and
		// the flushed clock is exact.
		return func(c *cctx, regs []uint64) *cspan {
			f := c.f
			f.fip = fip
			if err := c.v.execCallFast(f, d, c.st); err != nil {
				c.err = wrapFastErr(f, d, err)
				return nil
			}
			return nil
		}, 0, 0

	case dRet:
		src := d.src
		return func(c *cctx, regs []uint64) *cspan {
			f := c.f
			f.fip = fip
			if err := c.v.execRet(f, src); err != nil {
				c.err = wrapFastErr(f, d, err)
				return nil
			}
			return nil
		}, 1, 0

	case dUnreachable:
		err := wrapSiteErr(fname, d, &RuntimeError{
			Msg: "reached unreachable code in " + fname})
		return func(c *cctx, regs []uint64) *cspan {
			c.f.fip = fip
			c.err = err
			return nil
		}, 1, 0

	case dFellOff:
		// The reference engine charges the step but not Insts; the
		// sentinel has no source instruction and reports bare.
		err := &RuntimeError{Msg: fmt.Sprintf(
			"fell off block b%d in %s", d.blk, fname)}
		return func(c *cctx, regs []uint64) *cspan {
			c.f.fip = fip
			c.err = err
			return nil
		}, 0, 0

	case dGEPCheckLoad:
		return compileGEPCheckLoad(df, fip, next, tailInsts, tailSim), 3, costALU + costMem

	case dGEPCheckStore:
		return compileGEPCheckStore(df, fip, next, tailInsts, tailSim), 3, costALU + costMem

	case dCheckMetaLoad:
		return compileCheckMetaLoad(df, fip, next, tailInsts, tailSim), 2, 0

	default: // dBad
		err := wrapSiteErr(fname, d, &RuntimeError{Msg: fmt.Sprintf(
			"malformed instruction in %s", fname)})
		return func(c *cctx, regs []uint64) *cspan {
			c.f.fip = fip
			c.err = err
			return nil
		}, 1, 0
	}
}

// compileBinFull emits a fully inlined closure for a full-width integer
// binary op — wrapInt is the identity at 64 bits, so the closure body is
// one machine op with no kernel indirection (the captured-kernel call
// showed up as its own hot frame in the profile). Returns nil when the
// op needs masking, can fault, or is a float op.
func compileBinFull(d *dinst, next cop) cop {
	in := d.src
	if in.IntWidth != 0 && in.IntWidth < 64 {
		return nil
	}
	switch in.Op {
	case ir.OpAdd:
		return compileAddOp(d, next)
	case ir.OpSub:
		return compileSubOp(d, next)
	case ir.OpMul:
		return compileMulOp(d, next)
	case ir.OpAnd:
		return compileAndOp(d, next)
	case ir.OpOr:
		return compileOrOp(d, next)
	case ir.OpXor:
		return compileXorOp(d, next)
	}
	return nil
}

// The six helpers below are the same lowering unrolled per operator:
// reg-reg and reg-imm shapes get closures whose bodies are the bare
// machine op; other shapes read through the generic operand getter.

func compileAddOp(d *dinst, next cop) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] + regs[b]; return next(c, regs) }
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] + imm; return next(c, regs) }
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan { regs[dst] = av.get(regs) + bv.get(regs); return next(c, regs) }
}

func compileSubOp(d *dinst, next cop) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] - regs[b]; return next(c, regs) }
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] - imm; return next(c, regs) }
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan { regs[dst] = av.get(regs) - bv.get(regs); return next(c, regs) }
}

func compileMulOp(d *dinst, next cop) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] * regs[b]; return next(c, regs) }
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] * imm; return next(c, regs) }
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan { regs[dst] = av.get(regs) * bv.get(regs); return next(c, regs) }
}

func compileAndOp(d *dinst, next cop) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] & regs[b]; return next(c, regs) }
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] & imm; return next(c, regs) }
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan { regs[dst] = av.get(regs) & bv.get(regs); return next(c, regs) }
}

func compileOrOp(d *dinst, next cop) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] | regs[b]; return next(c, regs) }
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] | imm; return next(c, regs) }
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan { regs[dst] = av.get(regs) | bv.get(regs); return next(c, regs) }
}

func compileXorOp(d *dinst, next cop) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] ^ regs[b]; return next(c, regs) }
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan { regs[dst] = regs[a] ^ imm; return next(c, regs) }
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan { regs[dst] = av.get(regs) ^ bv.get(regs); return next(c, regs) }
}

// compileArith builds a kernel-backed closure specialized on the operand
// shapes the decoder actually emits (reg-reg and reg-imm dominate the
// profile; anything else takes the generic read). Only the sub-64-bit
// and shift kernels still route through here — the full-width ops have
// dedicated inlined lowerings above.
func compileArith(d *dinst, next cop, k func(a, b uint64) uint64) cop {
	dst := d.dst
	if d.a.reg >= 0 && d.b.reg >= 0 {
		a, b := d.a.reg, d.b.reg
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = k(regs[a], regs[b])
			return next(c, regs)
		}
	}
	if d.a.reg >= 0 {
		a, imm := d.a.reg, d.b.imm
		return func(c *cctx, regs []uint64) *cspan {
			regs[dst] = k(regs[a], imm)
			return next(c, regs)
		}
	}
	av, bv := d.a, d.b
	return func(c *cctx, regs []uint64) *cspan {
		regs[dst] = k(av.get(regs), bv.get(regs))
		return next(c, regs)
	}
}

// mem64 reports whether mt loads/stores a raw 64-bit word, letting the
// compiled tier call Mem.ReadU64/WriteU64 directly instead of going
// through the loadMem/storeMem type switch.
func mem64(mt ir.MemType) bool {
	return mt == ir.MemI64 || mt == ir.MemF64 || mt == ir.MemPtr
}

// compileGEPCheckLoad lowers the fused GEP+Check+Load superinstruction.
// The fixed contribution is insts 3, sim costALU+costMem; each failure
// site undoes exactly the components the fast engine would not have
// counted (fastexec.go's per-component accounting). The dominant
// non-temporal 64-bit shape gets a fully inlined body: spatial compare
// and word load with no helper calls.
func compileGEPCheckLoad(df *dfunc, fip int, next cop, tailInsts, tailSim uint64) cop {
	code := df.code
	d := &code[fip]
	fname := df.fn.Name
	av, bv, basev, bndv := d.a, d.b, d.base, d.bnd
	size, off := uint64(d.size), uint64(d.off)
	dst, dst2, mem := d.dst, d.dst2, d.mem
	msize := uint64(mem.Size())
	isPtr := mem == ir.MemPtr
	// Check failure: GEP and the check itself counted (insts 2, sim
	// costALU); load failure: all three insts counted, costMem not.
	chkUndoI, chkUndoS := tailInsts+1, tailSim+costMem
	ldUndoI, ldUndoS := tailInsts, tailSim+costMem
	if !d.tmeta && mem64(mem) {
		asize := d.asize
		kind := d.checkK
		incLoad, incStore := kind == ir.CheckLoad, kind == ir.CheckStore
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			t := av.get(regs) + bv.get(regs)*size + off
			regs[dst] = t
			base := basev.get(regs)
			bound := bndv.get(regs)
			v.stats.Checks++
			v.stats.SimInsts += v.cfg.CheckCost
			if incLoad {
				v.stats.LoadChecks++
			} else if incStore {
				v.stats.StoreChecks++
			}
			if t < base || t+asize > bound {
				return c.fail(fip, d, chkUndoI, chkUndoS, &SpatialViolation{Kind: kind,
					Ptr: t, Base: base, Bound: bound, Size: asize, Func: fname})
			}
			if ck := v.cfg.Checker; ck != nil {
				if err := ck.OnLoad(t, msize); err != nil {
					return c.fail(fip, d, ldUndoI, ldUndoS, err)
				}
			}
			val, err := v.mem.ReadU64(t)
			if err != nil {
				return c.fail(fip, d, ldUndoI, ldUndoS, err)
			}
			regs[dst2] = val
			v.stats.Loads++
			if isPtr {
				v.stats.PtrLoads++
			}
			return next(c, regs)
		}
	}
	return func(c *cctx, regs []uint64) *cspan {
		v := c.v
		t := av.get(regs) + bv.get(regs)*size + off
		regs[dst] = t
		if err := v.fastCheck(fname, d,
			t, basev.get(regs), bndv.get(regs), regs); err != nil {
			return c.fail(fip, d, chkUndoI, chkUndoS, err)
		}
		if ck := v.cfg.Checker; ck != nil {
			if err := ck.OnLoad(t, msize); err != nil {
				return c.fail(fip, d, ldUndoI, ldUndoS, err)
			}
		}
		val, err := v.loadMem(t, mem)
		if err != nil {
			return c.fail(fip, d, ldUndoI, ldUndoS, err)
		}
		regs[dst2] = val
		v.stats.Loads++
		if isPtr {
			v.stats.PtrLoads++
		}
		return next(c, regs)
	}
}

// compileGEPCheckStore lowers the fused GEP+Check+Store superinstruction
// (same accounting shape as the load form, same specialized hot shape).
func compileGEPCheckStore(df *dfunc, fip int, next cop, tailInsts, tailSim uint64) cop {
	code := df.code
	d := &code[fip]
	fname := df.fn.Name
	av, bv, basev, bndv := d.a, d.b, d.base, d.bnd
	size, off := uint64(d.size), uint64(d.off)
	dst, valv, mem := d.dst, d.args[0], d.mem
	msize := uint64(mem.Size())
	isPtr := mem == ir.MemPtr
	chkUndoI, chkUndoS := tailInsts+1, tailSim+costMem
	stUndoI, stUndoS := tailInsts, tailSim+costMem
	if !d.tmeta && mem64(mem) {
		asize := d.asize
		kind := d.checkK
		incLoad, incStore := kind == ir.CheckLoad, kind == ir.CheckStore
		return func(c *cctx, regs []uint64) *cspan {
			v := c.v
			t := av.get(regs) + bv.get(regs)*size + off
			regs[dst] = t
			base := basev.get(regs)
			bound := bndv.get(regs)
			v.stats.Checks++
			v.stats.SimInsts += v.cfg.CheckCost
			if incLoad {
				v.stats.LoadChecks++
			} else if incStore {
				v.stats.StoreChecks++
			}
			if t < base || t+asize > bound {
				return c.fail(fip, d, chkUndoI, chkUndoS, &SpatialViolation{Kind: kind,
					Ptr: t, Base: base, Bound: bound, Size: asize, Func: fname})
			}
			if ck := v.cfg.Checker; ck != nil {
				if err := ck.OnStore(t, msize); err != nil {
					return c.fail(fip, d, stUndoI, stUndoS, err)
				}
			}
			val := valv.get(regs)
			if err := v.mem.WriteU64(t, val); err != nil {
				return c.fail(fip, d, stUndoI, stUndoS, err)
			}
			v.stats.Stores++
			if isPtr {
				v.stats.PtrStores++
				if pf := v.cfg.PtrStoreFault; pf != nil {
					if mask := pf(t, val); mask != 0 {
						_ = v.mem.WriteU64(t, val^mask)
					}
				}
			}
			return next(c, regs)
		}
	}
	return func(c *cctx, regs []uint64) *cspan {
		v := c.v
		t := av.get(regs) + bv.get(regs)*size + off
		regs[dst] = t
		if err := v.fastCheck(fname, d,
			t, basev.get(regs), bndv.get(regs), regs); err != nil {
			return c.fail(fip, d, chkUndoI, chkUndoS, err)
		}
		if ck := v.cfg.Checker; ck != nil {
			if err := ck.OnStore(t, msize); err != nil {
				return c.fail(fip, d, stUndoI, stUndoS, err)
			}
		}
		val := valv.get(regs)
		if err := v.storeMem(t, val, mem); err != nil {
			return c.fail(fip, d, stUndoI, stUndoS, err)
		}
		v.stats.Stores++
		if isPtr {
			v.stats.PtrStores++
			if pf := v.cfg.PtrStoreFault; pf != nil {
				if mask := pf(t, val); mask != 0 {
					_ = v.mem.WriteU64(t, val^mask)
				}
			}
		}
		return next(c, regs)
	}
}

// compileCheckMetaLoad lowers the fused Check+MetaLoad superinstruction.
func compileCheckMetaLoad(df *dfunc, fip int, next cop, tailInsts, tailSim uint64) cop {
	code := df.code
	d := &code[fip]
	fname := df.fn.Name
	av, addrv := d.a, d.b
	dst, dst2, dst3, dst4 := d.dst, d.dst2, d.dst3, d.dst4
	// The check is the first component: on failure only it was executed.
	chkUndoI, chkUndoS := tailInsts+1, tailSim
	return func(c *cctx, regs []uint64) *cspan {
		v := c.v
		if err := v.fastCheck(fname, d,
			av.get(regs), d.base.get(regs), d.bnd.get(regs), regs); err != nil {
			return c.fail(fip, d, chkUndoI, chkUndoS, err)
		}
		addr := addrv.get(regs)
		e := v.fac.Lookup(addr)
		regs[dst] = e.Base
		regs[dst2] = e.Bound
		if dst3 != ir.NoReg {
			regs[dst3] = e.Key
			regs[dst4] = e.Lock
		}
		v.stats.MetaLoads++
		c.st.sim += v.lookupCost
		return next(c, regs)
	}
}

// loopCompiled runs the compiled program until the outermost frame
// returns, exit() is called, or an error occurs. It mirrors loopFast's
// accounting contract; the only structural difference is that budget,
// poll, and fixed statistics reconcile per span instead of per
// instruction, with loopFast as the exact-trap backstop when the budget
// cannot cover a whole span.
func (v *VM) loopCompiled() (err error) {
	defer recoverRuntime(&err)
	st := fastState{
		budget: int64(v.limit) - int64(v.steps),
		poll:   int64(deadlinePollMask+1) - int64(v.steps&deadlinePollMask),
	}
	c := &cctx{v: v, st: &st}
	for !v.halted && len(v.stack) > 0 {
		f := &v.stack[len(v.stack)-1]
		cf := f.cf
		if cf == nil || f.fip >= len(cf.df.code) {
			v.flushFast(&st)
			return &RuntimeError{Msg: "no decoded code at resume point in " + f.fn.Name}
		}
		c.f = f
		regs := f.regs
		sp := cf.spanAt[f.fip]
		if sp == nil {
			// Not a span boundary (cannot happen for decoder-produced
			// code); run the rest of the program on the fast engine.
			v.flushFast(&st)
			return v.loopFast()
		}
		for {
			if st.poll <= 0 {
				f.fip = sp.fip
				v.flushFast(&st)
				if v.ctx != nil && v.ctx.Err() != nil {
					return wrapFastErr(f, &cf.df.code[sp.fip], &Trap{Code: TrapDeadline,
						Cause: &RuntimeError{Msg: fmt.Sprintf(
							"deadline exceeded after %d steps: %v", v.steps, v.ctx.Err())}})
				}
				for st.poll <= 0 {
					st.poll += deadlinePollMask + 1
				}
			}
			if st.budget < sp.steps {
				// The remaining budget cannot cover the span: delegate to
				// loopFast, whose per-instruction countdown (and partial
				// fused execution) traps at the exact reference position.
				f.fip = sp.fip
				v.flushFast(&st)
				return v.loopFast()
			}
			st.budget -= sp.steps
			st.poll -= sp.steps
			st.insts += sp.fixedInsts
			st.sim += sp.fixedSim
			next := sp.head(c, regs)
			if next == nil {
				break // frame change or failure: sort it out below
			}
			sp = next
		}
		if c.err != nil {
			v.flushFast(&st)
			return c.err
		}
	}
	v.flushFast(&st)
	return nil
}
