// Package sweep implements the 1-D recurrence solvers at the heart of
// line-sweep computations (ADI integration, NAS SP), in *partitioned* form:
// a line of n unknowns may be cut into chunks living on different tiles, and
// each solver processes one chunk given a small carry from the previous
// chunk, producing the carry for the next. This is exactly the per-phase
// computation of a multipartitioned sweep: a processor solves its tiles'
// chunks, then ships the carries for all lines crossing the tile face to the
// neighbor processor in one aggregated message.
//
// Three solvers are provided:
//
//   - Recurrence: first-order linear recurrences x[k] = a[k]·x[k−1] + b[k]
//     (forward-only; carry = 1 value per line).
//   - Tridiag: the Thomas algorithm for tridiagonal systems (forward
//     elimination carry = 2 values; back-substitution carry = 1 value).
//   - Banded: LU without pivoting for banded systems with kl sub- and ku
//     super-diagonals (pentadiagonal solves of NAS SP are kl = ku = 2).
//     Forward carry = kl·(ku+2) values; backward carry = ku values.
//
// All solvers require elimination-stable systems (e.g. diagonally dominant),
// as no pivoting can cross tile boundaries.
package sweep

import "fmt"

// Solver processes chunks of 1-D lines with carries. Vecs is a solver-
// specific list of equal-length slices (see each implementation); the
// solution is produced in place.
//
// Every solver has both forms of each pass: the batched panel passes of
// BatchSolver, which all executors run, and the scalar per-line
// Forward/Backward, which serve as the reference the batched passes are
// checked against bit for bit (ChunkedSolve, the serial solves of the
// applications, and the kernel identity tests).
type Solver interface {
	BatchSolver
	// Name identifies the solver in diagnostics.
	Name() string
	// NumVecs returns how many per-line arrays the solver operates on.
	NumVecs() int
	// ForwardCarryLen and BackwardCarryLen are the per-line carry sizes.
	ForwardCarryLen() int
	BackwardCarryLen() int
	// Forward processes a chunk left-to-right. carryIn is nil (or all zero)
	// for the leftmost chunk of a line; carryOut receives the outgoing
	// carry (length ForwardCarryLen).
	Forward(vecs [][]float64, carryIn, carryOut []float64)
	// Backward processes a chunk right-to-left. carryIn is nil for the
	// rightmost chunk; carryOut receives the carry for the chunk to the
	// left (length BackwardCarryLen). Solvers without a backward pass make
	// this a no-op.
	Backward(vecs [][]float64, carryIn, carryOut []float64)
	// ForwardFlopsPerElement and BackwardFlopsPerElement report the
	// approximate floating-point operations per line element of each pass,
	// used by the performance model.
	ForwardFlopsPerElement() float64
	BackwardFlopsPerElement() float64
	// FlopsPerElement is the two passes combined.
	FlopsPerElement() float64
}

// HasBackward reports whether s has a backward pass to run. A pass without
// carries still counts when it does work: the backward pass of a banded
// solver with no super-diagonals divides by the diagonal.
func HasBackward(s Solver) bool {
	return s.BackwardCarryLen() > 0 || s.BackwardFlopsPerElement() > 0
}

// --- first-order recurrence ---------------------------------------------

// Recurrence solves x[k] = a[k]·x[k−1] + b[k] in place. Vecs: [a, x] where x
// holds b on entry and the solution on exit. The carry is the last x of the
// chunk. There is no backward pass.
type Recurrence struct{}

// Name implements Solver.
func (Recurrence) Name() string                     { return "recurrence" }
func (Recurrence) NumVecs() int                     { return 2 }
func (Recurrence) ForwardCarryLen() int             { return 1 }
func (Recurrence) BackwardCarryLen() int            { return 0 }
func (Recurrence) ForwardFlopsPerElement() float64  { return 2 }
func (Recurrence) BackwardFlopsPerElement() float64 { return 0 }
func (Recurrence) FlopsPerElement() float64         { return 2 }

func (Recurrence) Forward(vecs [][]float64, carryIn, carryOut []float64) {
	a, x := vecs[0], vecs[1]
	prev := 0.0
	if len(carryIn) > 0 {
		prev = carryIn[0]
	}
	for k := range x {
		prev = a[k]*prev + x[k]
		x[k] = prev
	}
	if len(carryOut) > 0 {
		carryOut[0] = prev
	}
}

func (Recurrence) Backward(vecs [][]float64, carryIn, carryOut []float64) {}

// --- Thomas tridiagonal ---------------------------------------------------

// Tridiag solves lower[k]·x[k−1] + diag[k]·x[k] + upper[k]·x[k+1] = rhs[k]
// by the Thomas algorithm. Vecs: [lower, diag, upper, rhs]. The forward pass
// overwrites upper with the modified coefficients c′ and rhs with d′ (diag
// and lower are consumed); the backward pass overwrites rhs with the
// solution. Forward carry: (c′, d′) of the chunk's last row. Backward carry:
// x of the chunk's first row.
type Tridiag struct{}

func (Tridiag) Name() string                     { return "tridiag" }
func (Tridiag) NumVecs() int                     { return 4 }
func (Tridiag) ForwardCarryLen() int             { return 2 }
func (Tridiag) BackwardCarryLen() int            { return 1 }
func (Tridiag) ForwardFlopsPerElement() float64  { return 6 }
func (Tridiag) BackwardFlopsPerElement() float64 { return 2 }
func (Tridiag) FlopsPerElement() float64         { return 8 }

func (Tridiag) Forward(vecs [][]float64, carryIn, carryOut []float64) {
	lower, diag, upper, rhs := vecs[0], vecs[1], vecs[2], vecs[3]
	cPrev, dPrev := 0.0, 0.0
	if len(carryIn) > 0 {
		cPrev, dPrev = carryIn[0], carryIn[1]
	}
	for k := range diag {
		den := diag[k] - lower[k]*cPrev
		if den == 0 {
			panic("sweep: Tridiag: zero pivot (system not elimination-stable)")
		}
		cPrev = upper[k] / den
		dPrev = (rhs[k] - lower[k]*dPrev) / den
		upper[k] = cPrev
		rhs[k] = dPrev
	}
	if len(carryOut) > 0 {
		carryOut[0], carryOut[1] = cPrev, dPrev
	}
}

func (Tridiag) Backward(vecs [][]float64, carryIn, carryOut []float64) {
	upper, rhs := vecs[2], vecs[3]
	xNext := 0.0
	haveNext := false
	if len(carryIn) > 0 {
		xNext = carryIn[0]
		haveNext = true
	}
	for k := len(rhs) - 1; k >= 0; k-- {
		if haveNext {
			rhs[k] -= upper[k] * xNext
		}
		xNext = rhs[k]
		haveNext = true
	}
	if len(carryOut) > 0 {
		carryOut[0] = xNext
	}
}

// --- general banded -------------------------------------------------------

// Banded solves banded systems with KL sub-diagonals and KU super-diagonals
// by LU elimination without pivoting. Vecs: KL lower-band arrays (nearest
// first: vecs[0][k] multiplies x[k−1], vecs[1][k] multiplies x[k−2], …),
// then diag, then KU upper-band arrays (vecs[KL+1][k] multiplies x[k+1], …),
// then rhs — NumVecs = KL+KU+2 in total. Band entries that would reach
// outside the line must be zero.
//
// The forward pass stores the eliminated rows in place (diag, uppers, rhs
// updated; lowers zeroed). Forward carry: the last KL eliminated rows, each
// as (diag, u₁…u_KU, rhs), oldest row first — KL·(KU+2) values. Backward
// carry: the x values of the chunk's first KU rows, nearest first.
type Banded struct {
	KL, KU int
}

func (b Banded) Name() string          { return fmt.Sprintf("banded(%d,%d)", b.KL, b.KU) }
func (b Banded) NumVecs() int          { return b.KL + b.KU + 2 }
func (b Banded) ForwardCarryLen() int  { return b.KL * (b.KU + 2) }
func (b Banded) BackwardCarryLen() int { return b.KU }

// ForwardFlopsPerElement: KL eliminations × (1 div + (KU+1) mul-sub).
func (b Banded) ForwardFlopsPerElement() float64 { return float64(b.KL * (2*b.KU + 3)) }

// BackwardFlopsPerElement: KU mul-subs + 1 div.
func (b Banded) BackwardFlopsPerElement() float64 { return float64(2*b.KU + 1) }

func (b Banded) FlopsPerElement() float64 {
	return b.ForwardFlopsPerElement() + b.BackwardFlopsPerElement()
}

// rowLen is the per-eliminated-row carry stride: diag + KU uppers + rhs.
func (b Banded) rowLen() int { return b.KU + 2 }

func (b Banded) Forward(vecs [][]float64, carryIn, carryOut []float64) {
	kl, ku := b.KL, b.KU
	diag := vecs[kl]
	rhs := vecs[kl+ku+1]
	n := len(diag)
	rl := b.rowLen()

	// window holds the last kl eliminated rows, each rl values
	// (diag, u₁…u_KU, rhs); window[(head+kl−1)%kl] is the most recent.
	// valid counts how many window slots hold real rows (the first rows of
	// a whole line have no predecessors).
	window := make([]float64, kl*rl)
	valid := 0
	if len(carryIn) == b.ForwardCarryLen() {
		copy(window, carryIn)
		valid = kl
	} else if len(carryIn) != 0 {
		panic(fmt.Sprintf("sweep: Banded.Forward: carryIn length %d, want 0 or %d", len(carryIn), b.ForwardCarryLen()))
	}

	// active[j] for j in [0, kl+ku]: coefficient of x[row−kl+j].
	active := make([]float64, kl+ku+1)
	for row := 0; row < n; row++ {
		for k := 1; k <= kl; k++ {
			active[kl-k] = vecs[k-1][row]
		}
		active[kl] = diag[row]
		for t := 1; t <= ku; t++ {
			active[kl+t] = vecs[kl+t][row]
		}
		r := rhs[row]

		// Eliminate the lower-band coefficients, farthest predecessor
		// first, using the corresponding eliminated rows from the window.
		for k := kl; k >= 1; k-- {
			c := active[kl-k]
			if c == 0 {
				continue
			}
			// Row (row−k): window slot offset k from the most recent.
			if k > valid {
				panic("sweep: Banded.Forward: nonzero lower-band coefficient reaches before the start of the line")
			}
			w := window[(valid-k)*rl : (valid-k)*rl+rl]
			d := w[0]
			if d == 0 {
				panic("sweep: Banded.Forward: zero pivot (system not elimination-stable)")
			}
			f := c / d
			active[kl-k] = 0
			for t := 1; t <= ku; t++ {
				active[kl-k+t] -= f * w[t]
			}
			r -= f * w[ku+1]
		}

		// Store the eliminated row back into the vecs (lowers zeroed).
		for k := 1; k <= kl; k++ {
			vecs[k-1][row] = 0
		}
		diag[row] = active[kl]
		for t := 1; t <= ku; t++ {
			vecs[kl+t][row] = active[kl+t]
		}
		rhs[row] = r

		// Slide the window: drop the oldest row, append this one.
		if valid == kl {
			copy(window, window[rl:])
			valid--
		}
		w := window[valid*rl : valid*rl+rl]
		w[0] = active[kl]
		for t := 1; t <= ku; t++ {
			w[t] = active[kl+t]
		}
		w[ku+1] = r
		valid++
	}

	if len(carryOut) > 0 {
		if len(carryOut) != b.ForwardCarryLen() {
			panic("sweep: Banded.Forward: carryOut length mismatch")
		}
		// If the chunk (plus incoming carry) is shorter than kl the window
		// may be partially valid; the missing oldest slots are zero rows
		// whose diag is 0 — they are never referenced because the matching
		// lower coefficients must be zero at the start of the line.
		for i := range carryOut {
			carryOut[i] = 0
		}
		copy(carryOut[(kl-valid)*rl:], window[:valid*rl])
	}
}

func (b Banded) Backward(vecs [][]float64, carryIn, carryOut []float64) {
	kl, ku := b.KL, b.KU
	diag := vecs[kl]
	rhs := vecs[kl+ku+1]
	n := len(diag)

	// xr holds the ku solution values immediately right of the current row,
	// nearest first.
	xr := make([]float64, ku)
	validR := 0
	if len(carryIn) == ku {
		copy(xr, carryIn)
		validR = ku
	} else if len(carryIn) != 0 {
		panic(fmt.Sprintf("sweep: Banded.Backward: carryIn length %d, want 0 or %d", len(carryIn), ku))
	}

	for row := n - 1; row >= 0; row-- {
		r := rhs[row]
		for t := 1; t <= ku; t++ {
			u := vecs[kl+t][row]
			if u == 0 {
				continue
			}
			if t > validR {
				panic("sweep: Banded.Backward: nonzero upper-band coefficient reaches past the end of the line")
			}
			r -= u * xr[t-1]
		}
		d := diag[row]
		if d == 0 {
			panic("sweep: Banded.Backward: zero pivot")
		}
		x := r / d
		rhs[row] = x
		// Shift xr right and prepend x.
		if ku > 0 {
			copy(xr[1:], xr[:ku-1])
			xr[0] = x
			if validR < ku {
				validR++
			}
		}
	}

	if len(carryOut) > 0 {
		if len(carryOut) != ku {
			panic("sweep: Banded.Backward: carryOut length mismatch")
		}
		// After the loop xr[t] is the solution at relative position t
		// (covering the incoming carry too when the chunk is shorter than
		// ku), which is exactly the carry the next-left chunk needs.
		for t := 0; t < ku; t++ {
			if t < validR {
				carryOut[t] = xr[t]
			} else {
				carryOut[t] = 0
			}
		}
	}
}

// NewPenta returns the pentadiagonal solver (KL = KU = 2) used by the SP
// benchmark's scalar penta-diagonal line solves.
func NewPenta() Banded { return Banded{KL: 2, KU: 2} }

// --- serial references ----------------------------------------------------

// SolveRecurrence computes x[k] = a[k]·x[k−1] + b[k] for a whole line with
// x[−1] = x0, returning a new slice.
func SolveRecurrence(a, b []float64, x0 float64) []float64 {
	x := make([]float64, len(b))
	prev := x0
	for k := range b {
		prev = a[k]*prev + b[k]
		x[k] = prev
	}
	return x
}

// SolveTridiagonal solves a whole tridiagonal system by the Thomas
// algorithm, returning a new slice. Inputs are not modified.
func SolveTridiagonal(lower, diag, upper, rhs []float64) []float64 {
	n := len(diag)
	c := make([]float64, n)
	d := make([]float64, n)
	cPrev, dPrev := 0.0, 0.0
	for k := 0; k < n; k++ {
		den := diag[k] - lower[k]*cPrev
		cPrev = upper[k] / den
		dPrev = (rhs[k] - lower[k]*dPrev) / den
		c[k], d[k] = cPrev, dPrev
	}
	x := make([]float64, n)
	xNext := 0.0
	for k := n - 1; k >= 0; k-- {
		if k == n-1 {
			x[k] = d[k]
		} else {
			x[k] = d[k] - c[k]*xNext
		}
		xNext = x[k]
	}
	return x
}

// SolveDense solves A·x = b by Gaussian elimination with partial pivoting
// (test oracle; O(n³)). A and b are not modified.
func SolveDense(A [][]float64, b []float64) []float64 {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], A[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[piv][col]) {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		if m[col][col] == 0 {
			panic("sweep: SolveDense: singular matrix")
		}
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		s := m[row][n]
		for c := row + 1; c < n; c++ {
			s -= m[row][c] * x[c]
		}
		x[row] = s / m[row][row]
	}
	return x
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ChunkedSolve runs a Solver over a whole line cut at the given boundaries
// (ascending interior cut points), threading carries between chunks exactly
// as a distributed sweep would. vecs are full-line arrays; the solution is
// produced in place. Used by tests and the serial executors.
func ChunkedSolve(s Solver, vecs [][]float64, cuts []int) {
	var ws Workspace
	ChunkedSolveWS(s, vecs, cuts, &ws)
}
