package sweep

// PassAccess is an optional Solver refinement declaring which per-line
// arrays each pass touches. Executors on the batched path use it to skip
// packing panels a pass never reads (gather) and unpacking panels it never
// writes (scatter): skipping a scatter of unmodified values is a numeric
// no-op, so bit-identity with the scalar oracle — which always moves every
// vector — is preserved while the pack/unpack traffic shrinks to what the
// kernel actually uses.
//
// Both methods return (touched, written): touched[v] is true when the pass
// reads or writes vector v at all (the executor must gather it), written[v]
// when the pass stores into it (the executor must scatter it). Returned
// slices are shared and must not be mutated. A nil slice means "all".
type PassAccess interface {
	ForwardAccess() (touched, written []bool)
	BackwardAccess() (touched, written []bool)
}

var (
	recurrenceFwdTouched = []bool{true, true}
	recurrenceFwdWritten = []bool{false, true}
	recurrenceBwdNone    = []bool{false, false}

	tridiagAll        = []bool{true, true, true, true}
	tridiagFwdWritten = []bool{false, false, true, true}
	tridiagBwd        = []bool{false, false, true, true}
	tridiagBwdWritten = []bool{false, false, false, true}
)

// ForwardAccess implements PassAccess: x = a·prev + x reads both arrays and
// stores only x.
func (Recurrence) ForwardAccess() (touched, written []bool) {
	return recurrenceFwdTouched, recurrenceFwdWritten
}

// BackwardAccess implements PassAccess: there is no backward pass.
func (Recurrence) BackwardAccess() (touched, written []bool) {
	return recurrenceBwdNone, recurrenceBwdNone
}

// ForwardAccess implements PassAccess: the Thomas elimination reads all four
// arrays and stores c′, d′ into upper and rhs.
func (Tridiag) ForwardAccess() (touched, written []bool) {
	return tridiagAll, tridiagFwdWritten
}

// BackwardAccess implements PassAccess: back-substitution reads upper and
// rhs and stores the solution into rhs.
func (Tridiag) BackwardAccess() (touched, written []bool) {
	return tridiagBwd, tridiagBwdWritten
}

// ForwardAccess implements PassAccess: the in-place elimination touches and
// rewrites every band array (lowers are zeroed, diag/uppers/rhs updated).
func (bd Banded) ForwardAccess() (touched, written []bool) {
	return nil, nil
}

// BackwardAccess implements PassAccess: back-substitution reads diag, the
// uppers and rhs (never the zeroed lowers) and stores only into rhs.
func (bd Banded) BackwardAccess() (touched, written []bool) {
	nv := bd.NumVecs()
	touched = make([]bool, nv)
	written = make([]bool, nv)
	for v := bd.KL; v < nv; v++ {
		touched[v] = true
	}
	written[nv-1] = true
	return touched, written
}

// ForwardAccess implements PassAccess: the forward pass reads every block
// and F but stores only C′ and F′ (B is copied into a scratch factor).
func (s BlockTridiag) ForwardAccess() (touched, written []bool) {
	written, _ = s.BackwardAccess()
	return nil, written
}

// BackwardAccess implements PassAccess: back-substitution reads C′ and F′
// (vectors 2B² on) and stores the solution into F (vectors 3B² on). The
// forward pass writes what the backward pass touches.
func (s BlockTridiag) BackwardAccess() (touched, written []bool) {
	bb := s.B * s.B
	nv := s.NumVecs()
	touched = make([]bool, nv)
	written = make([]bool, nv)
	for v := 2 * bb; v < nv; v++ {
		touched[v] = true
		written[v] = v >= 3*bb
	}
	return touched, written
}

// MaskOn reports whether a mask admits vector v (nil means "all").
func MaskOn(mask []bool, v int) bool { return mask == nil || mask[v] }

// PassMasks resolves the gather/scatter masks an executor should apply for
// one batched pass of s: nil masks mean "move every vector".
func PassMasks(s Solver, backward bool) (touched, written []bool) {
	pa, ok := s.(PassAccess)
	if !ok {
		return nil, nil
	}
	if backward {
		return pa.BackwardAccess()
	}
	return pa.ForwardAccess()
}
