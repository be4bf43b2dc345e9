package vm

import "errors"

// TrapCode is the machine-readable classification of a VM failure. Every
// error a VM run can return carries exactly one code, so harnesses and
// BENCH.json consumers can dispatch on failure class without parsing
// message strings. The taxonomy is the fail-closed contract's vocabulary
// (DESIGN.md "Failure model").
type TrapCode string

// Trap codes.
const (
	// TrapSpatial is a SoftBound bounds-check failure (SpatialViolation).
	TrapSpatial TrapCode = "spatial-violation"
	// TrapTemporal is a CETS lock-and-key check failure: the access went
	// through a pointer whose allocation has been freed (heap), popped
	// (stack frame), or superseded (realloc) — or whose temporal metadata
	// is absent, which fails closed (TemporalViolation). Non-retryable
	// like all detections, and like them it never trips serve breakers.
	TrapTemporal TrapCode = "temporal-violation"
	// TrapBaseline is a detection by a baseline Checker (BaselineViolation).
	TrapBaseline TrapCode = "baseline-violation"
	// TrapMemFault is an access to unmapped simulated memory (FaultError).
	TrapMemFault TrapCode = "memory-fault"
	// TrapWildJump is a call through a corrupted function pointer: the
	// callee operand does not decode to a function-table address
	// (WildJumpError). Memory-fault family — control left the program
	// text — but distinct, so breakers and BENCH.json consumers can
	// tell a hijacked call site from a stray data access.
	TrapWildJump TrapCode = "wild-jump"
	// TrapOOM is the heap-size cap firing (Config.HeapLimit exceeded).
	TrapOOM TrapCode = "oom"
	// TrapStepLimit is the instruction-step budget firing.
	TrapStepLimit TrapCode = "step-limit"
	// TrapDeadline is the wall-clock deadline (context) firing.
	TrapDeadline TrapCode = "deadline"
	// TrapStackOverflow is stack-segment or stack-depth exhaustion.
	TrapStackOverflow TrapCode = "stack-overflow"
	// TrapRuntime is any other execution error (wild jump, division by
	// zero, smashed stack, undefined function).
	TrapRuntime TrapCode = "runtime-error"
	// TrapPanic marks a recovered Go panic; the VM never produces it
	// itself, but the bench harness records contained cell panics with it.
	TrapPanic TrapCode = "panic"
)

// Retryable reports whether a failure of this class may be transient and
// is therefore eligible for a bounded retry. Only contained Go panics
// qualify: detections (spatial/baseline), resource-budget traps (oom,
// step-limit, stack-overflow), and genuine runtime faults are
// deterministic and replay identically, and a VM deadline trap means the
// program really ran past its time budget — rerunning it just doubles the
// wall clock to the same answer. This is the bench harness's containment
// rule (PR 3), shared with the execution service's retry policy.
func (c TrapCode) Retryable() bool { return c == TrapPanic }

// Trap is the typed failure every VM entry point returns: a machine-
// readable code plus the underlying cause. Unwrap exposes the cause, so
// errors.As against *SpatialViolation, *FaultError, etc. keeps working.
type Trap struct {
	Code  TrapCode
	Cause error
}

func (t *Trap) Error() string { return string(t.Code) + ": " + t.Cause.Error() }

// Unwrap exposes the underlying cause for errors.As / errors.Is.
func (t *Trap) Unwrap() error { return t.Cause }

// Classify wraps err in a Trap whose code matches the innermost typed
// error. It is idempotent (already-trapped errors pass through) and
// nil-preserving, so every error path out of Run can funnel through it.
func Classify(err error) error {
	if err == nil {
		return nil
	}
	var t *Trap
	if errors.As(err, &t) {
		return err
	}
	return &Trap{Code: codeFor(err), Cause: err}
}

func codeFor(err error) TrapCode {
	var tv *TemporalViolation
	if errors.As(err, &tv) {
		return TrapTemporal
	}
	var sv *SpatialViolation
	if errors.As(err, &sv) {
		return TrapSpatial
	}
	var bv *BaselineViolation
	if errors.As(err, &bv) {
		return TrapBaseline
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return TrapMemFault
	}
	var wj *WildJumpError
	if errors.As(err, &wj) {
		return TrapWildJump
	}
	return TrapRuntime
}

// CodeOf extracts the trap code from an error ("" for nil). Errors that
// did not originate in a Trap are classified on the fly, so callers can
// always rely on a non-empty code for a non-nil error.
func CodeOf(err error) TrapCode {
	if err == nil {
		return ""
	}
	var t *Trap
	if errors.As(err, &t) {
		return t.Code
	}
	return codeFor(err)
}
