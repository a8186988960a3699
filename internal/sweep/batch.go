package sweep

import "fmt"

// DefaultBatchLines is the panel width executors use when the caller does
// not pick one: wide enough that the stride-1 inner loop across lines hides
// the division latency of the eliminations, small enough that a panel of
// NumVecs chunk-length slices stays in L2.
const DefaultBatchLines = 32

// BatchSolver is the panel half of Solver: the forward and backward passes
// over a panel of nb lines at once. Every executor runs only these passes.
// The panel layout is structure-of-arrays: panels[v] holds vector v of
// every line, element k of line b at panels[v][k*nb+b], so the inner loop
// over lines is contiguous. Carries are line-major — line b's carry
// occupies carryIn[b*CarryLen:(b+1)*CarryLen] — which is exactly the wire
// format the distributed executors ship between neighbor tiles, so a
// batched pass can write its outgoing carries straight into the message
// payload.
//
// Batched passes MUST be bit-identical to running the scalar pass on each
// line: the committed BENCH baselines are gated at zero tolerance. The
// implementations below guarantee this by evaluating the same expressions
// in the same per-line order, reading running state (previous eliminated
// rows, previous solution values) back from the rows already stored in the
// panel instead of from scalar loop-carried variables.
type BatchSolver interface {
	// ForwardBatch runs the forward pass on a panel of nb lines of equal
	// length. carryIn is nil for the leftmost chunk; carryOut, when
	// non-nil, receives nb line-major carries of ForwardCarryLen each.
	ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64)
	// BackwardBatch is the backward-pass analogue (carries of
	// BackwardCarryLen per line; carryIn nil for the rightmost chunk).
	BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64)
}

// batchRows returns the chunk length of a panel and validates divisibility.
func batchRows(panel []float64, nb int) int {
	if nb <= 0 {
		panic(fmt.Sprintf("sweep: batch of %d lines", nb))
	}
	if len(panel)%nb != 0 {
		panic(fmt.Sprintf("sweep: panel length %d not a multiple of batch %d", len(panel), nb))
	}
	return len(panel) / nb
}

// --- Recurrence -----------------------------------------------------------

// ForwardBatch implements BatchSolver. The previous solution value is read
// from the row stored in the iteration before, so each line sees exactly
// the scalar recurrence prev = a·prev + b.
func (Recurrence) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	a, x := panels[0], panels[1]
	n := batchRows(x, nb)
	if n > 0 {
		if len(carryIn) > 0 {
			for b := 0; b < nb; b++ {
				x[b] = a[b]*carryIn[b] + x[b]
			}
		} else {
			for b := 0; b < nb; b++ {
				x[b] = a[b]*0.0 + x[b]
			}
		}
		for k := 1; k < n; k++ {
			base, prev := k*nb, (k-1)*nb
			for b := 0; b < nb; b++ {
				x[base+b] = a[base+b]*x[prev+b] + x[base+b]
			}
		}
	}
	if len(carryOut) > 0 {
		last := (n - 1) * nb
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[b] = x[last+b]
			} else if len(carryIn) > 0 {
				carryOut[b] = carryIn[b]
			} else {
				carryOut[b] = 0
			}
		}
	}
}

// BackwardBatch implements BatchSolver (no backward pass).
func (Recurrence) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
}

// --- Tridiag --------------------------------------------------------------

// ForwardBatch implements BatchSolver. The Thomas running values (c′, d′)
// of line b are read back from upper/rhs of the previous panel row — the
// scalar pass stores them there anyway — so the arithmetic per line is the
// scalar sequence verbatim.
func (Tridiag) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	lower, diag, upper, rhs := panels[0], panels[1], panels[2], panels[3]
	n := batchRows(diag, nb)
	for k := 0; k < n; k++ {
		base := k * nb
		prev := base - nb
		for b := 0; b < nb; b++ {
			var cPrev, dPrev float64
			if k > 0 {
				cPrev, dPrev = upper[prev+b], rhs[prev+b]
			} else if len(carryIn) > 0 {
				cPrev, dPrev = carryIn[2*b], carryIn[2*b+1]
			}
			den := diag[base+b] - lower[base+b]*cPrev
			if den == 0 {
				panic("sweep: Tridiag: zero pivot (system not elimination-stable)")
			}
			upper[base+b] = upper[base+b] / den
			rhs[base+b] = (rhs[base+b] - lower[base+b]*dPrev) / den
		}
	}
	if len(carryOut) > 0 {
		last := (n - 1) * nb
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[2*b], carryOut[2*b+1] = upper[last+b], rhs[last+b]
			} else if len(carryIn) > 0 {
				carryOut[2*b], carryOut[2*b+1] = carryIn[2*b], carryIn[2*b+1]
			} else {
				carryOut[2*b], carryOut[2*b+1] = 0, 0
			}
		}
	}
}

// BackwardBatch implements BatchSolver: back-substitution reading x of the
// row to the right from the already-solved panel row.
func (Tridiag) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	upper, rhs := panels[2], panels[3]
	n := batchRows(rhs, nb)
	if n > 0 {
		last := (n - 1) * nb
		if len(carryIn) > 0 {
			for b := 0; b < nb; b++ {
				rhs[last+b] -= upper[last+b] * carryIn[b]
			}
		}
		for k := n - 2; k >= 0; k-- {
			base, next := k*nb, (k+1)*nb
			for b := 0; b < nb; b++ {
				rhs[base+b] -= upper[base+b] * rhs[next+b]
			}
		}
	}
	if len(carryOut) > 0 {
		for b := 0; b < nb; b++ {
			if n > 0 {
				carryOut[b] = rhs[b]
			} else if len(carryIn) > 0 {
				carryOut[b] = carryIn[b]
			} else {
				carryOut[b] = 0
			}
		}
	}
}

// --- Banded ---------------------------------------------------------------

// ForwardBatch implements BatchSolver. Where the scalar pass keeps a
// sliding window of the last KL eliminated rows, the batched pass reads a
// predecessor row directly: from the panel when it lies inside the chunk
// (the scalar pass stores eliminated rows in place, so the values are the
// same), or from the line-major carryIn when it lies before the chunk
// (carry row j holds eliminated row j−KL relative to the chunk start,
// oldest first). The elimination updates the current row's coefficients in
// place, which matches the scalar active-row updates position for
// position.
func (bd Banded) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	kl, ku := bd.KL, bd.KU
	diag := panels[kl]
	rhs := panels[kl+ku+1]
	n := batchRows(diag, nb)
	rl := bd.rowLen()
	fcl := bd.ForwardCarryLen()
	if len(carryIn) != 0 && len(carryIn) != nb*fcl {
		panic(fmt.Sprintf("sweep: Banded.ForwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*fcl))
	}

	for row := 0; row < n; row++ {
		base := row * nb
		for b := 0; b < nb; b++ {
			r := rhs[base+b]
			// Eliminate lower-band coefficients, farthest predecessor
			// first. Eliminating x[row−k] updates the coefficients of
			// x[row−k+1] … x[row−k+ku], some of which are nearer lower
			// bands — reading each coefficient fresh from its panel picks
			// up those updates exactly like the scalar active row does.
			for k := kl; k >= 1; k-- {
				c := panels[k-1][base+b]
				if c == 0 {
					continue
				}
				pr := row - k // predecessor row, relative to the chunk
				var pd, pu, prhs float64
				var pb int
				var carry []float64
				if pr >= 0 {
					pb = pr*nb + b
					pd = diag[pb]
				} else {
					if len(carryIn) == 0 {
						panic("sweep: Banded.Forward: nonzero lower-band coefficient reaches before the start of the line")
					}
					carry = carryIn[b*fcl+(kl+pr)*rl:]
					pd = carry[0]
				}
				if pd == 0 {
					panic("sweep: Banded.Forward: zero pivot (system not elimination-stable)")
				}
				f := c / pd
				panels[k-1][base+b] = 0
				for t := 1; t <= ku; t++ {
					if carry == nil {
						pu = panels[kl+t][pb]
					} else {
						pu = carry[t]
					}
					// Coefficient of x[row−k+t]: a nearer lower band when
					// t < k, the diagonal when t == k, an upper band when
					// t > k.
					switch {
					case t < k:
						panels[k-t-1][base+b] -= f * pu
					case t == k:
						diag[base+b] -= f * pu
					default:
						panels[kl+t-k][base+b] -= f * pu
					}
				}
				if carry == nil {
					prhs = rhs[pb]
				} else {
					prhs = carry[ku+1]
				}
				r -= f * prhs
			}
			for k := 1; k <= kl; k++ {
				panels[k-1][base+b] = 0
			}
			rhs[base+b] = r
		}
	}

	if len(carryOut) > 0 {
		if len(carryOut) != nb*fcl {
			panic("sweep: Banded.Forward: carryOut length mismatch")
		}
		// Carry row j is eliminated row n−kl+j: inside the chunk read it
		// from the panel, before the chunk pass the incoming carry
		// through, and when the line itself is shorter than kl emit zero
		// rows (never referenced — matching lower coefficients are zero).
		for b := 0; b < nb; b++ {
			for j := 0; j < kl; j++ {
				w := carryOut[b*fcl+j*rl : b*fcl+j*rl+rl]
				idx := n - kl + j
				switch {
				case idx >= 0:
					pb := idx*nb + b
					w[0] = diag[pb]
					for t := 1; t <= ku; t++ {
						w[t] = panels[kl+t][pb]
					}
					w[ku+1] = rhs[pb]
				case len(carryIn) > 0:
					copy(w, carryIn[b*fcl+(idx+kl)*rl:b*fcl+(idx+kl)*rl+rl])
				default:
					for t := range w {
						w[t] = 0
					}
				}
			}
		}
	}
}

// BackwardBatch implements BatchSolver: back-substitution reading the KU
// solution values to the right from already-solved panel rows, or from the
// line-major carryIn (nearest first) past the chunk end.
func (bd Banded) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	kl, ku := bd.KL, bd.KU
	diag := panels[kl]
	rhs := panels[kl+ku+1]
	n := batchRows(diag, nb)
	if len(carryIn) != 0 && len(carryIn) != nb*ku {
		panic(fmt.Sprintf("sweep: Banded.BackwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*ku))
	}

	for row := n - 1; row >= 0; row-- {
		base := row * nb
		for b := 0; b < nb; b++ {
			r := rhs[base+b]
			for t := 1; t <= ku; t++ {
				u := panels[kl+t][base+b]
				if u == 0 {
					continue
				}
				nr := row + t
				if nr < n {
					r -= u * rhs[nr*nb+b]
				} else {
					if len(carryIn) == 0 {
						panic("sweep: Banded.Backward: nonzero upper-band coefficient reaches past the end of the line")
					}
					r -= u * carryIn[b*ku+(nr-n)]
				}
			}
			d := diag[base+b]
			if d == 0 {
				panic("sweep: Banded.Backward: zero pivot")
			}
			rhs[base+b] = r / d
		}
	}

	if len(carryOut) > 0 {
		if len(carryOut) != nb*ku {
			panic("sweep: Banded.Backward: carryOut length mismatch")
		}
		for b := 0; b < nb; b++ {
			for t := 0; t < ku; t++ {
				switch {
				case t < n:
					carryOut[b*ku+t] = rhs[t*nb+b]
				case len(carryIn) > 0:
					carryOut[b*ku+t] = carryIn[b*ku+(t-n)]
				default:
					carryOut[b*ku+t] = 0
				}
			}
		}
	}
}

// --- BlockTridiag ---------------------------------------------------------

// The BlockTridiag panel passes work on strips of at most btMaxStrip lanes
// so their scratch — each lane's factored B×B block and its pivot rows —
// lives in fixed arrays on the stack: btScratch floats of factors and
// btPivots pivot indices. Strips narrow for B > 4 so the factors still
// fit; only B > 32 needs heap scratch.
const (
	btMaxStrip = 64
	btScratch  = 1024
	btPivots   = 256
)

// stripWidth is the number of lanes one strip of the panel passes covers.
func (s BlockTridiag) stripWidth(nb int) int {
	return max(1, min(nb, btMaxStrip, btScratch/(s.B*s.B)))
}

// ForwardBatch implements BatchSolver. Each lane performs the scalar
// Forward arithmetic in the scalar order — the separate accumulator, then
// M −= acc, the luFactor loop order with a partial pivot chosen per lane,
// and the luSolve swap/forward/back order — but every operation is a
// stride-1 loop across the lanes of a strip. The running (C′, F′) of line
// b is read back from panel row k−1, where row k−1's pass stored it, or
// from the line-major carryIn at k = 0.
func (s BlockTridiag) ForwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	b := s.B
	bb := b * b
	baseC, baseF := 2*bb, 3*bb
	n := batchRows(panels[0], nb)
	fcl := s.ForwardCarryLen()
	if len(carryIn) != 0 && len(carryIn) != nb*fcl {
		panic(fmt.Sprintf("sweep: BlockTridiag.ForwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*fcl))
	}
	if len(carryOut) != 0 && len(carryOut) != nb*fcl {
		panic("sweep: BlockTridiag.ForwardBatch: carryOut length mismatch")
	}

	w := s.stripWidth(nb)
	var mBuf [btScratch]float64
	var pBuf [btPivots]int
	var aBuf [btMaxStrip]float64
	m, piv := mBuf[:], pBuf[:]
	if bb*w > len(m) {
		m = make([]float64, bb*w)
	}
	if b*w > len(piv) {
		piv = make([]int, b*w)
	}
	for s0 := 0; s0 < nb; s0 += w {
		ln := min(w, nb-s0)
		for k := 0; k < n; k++ {
			s.forwardStrip(panels, nb, k, s0, carryIn, m[:bb*ln], piv[:b*ln], aBuf[:ln])
		}
	}

	if len(carryOut) > 0 {
		switch {
		case n > 0:
			last := (n - 1) * nb
			for e := 0; e < bb; e++ {
				for l, v := range panels[baseC+e][last : last+nb] {
					carryOut[l*fcl+e] = v
				}
			}
			for e := 0; e < b; e++ {
				for l, v := range panels[baseF+e][last : last+nb] {
					carryOut[l*fcl+bb+e] = v
				}
			}
		case len(carryIn) > 0:
			copy(carryOut, carryIn)
		default:
			clear(carryOut)
		}
	}
}

// forwardStrip runs one row k of the forward pass on the lanes
// [s0, s0+len(acc)). m holds the strip's factors entry-major (entry (r,c)
// of every lane at m[(r·B+c)·ln:]); piv the pivot row of each column and
// lane (column col at piv[col·ln:]).
func (s BlockTridiag) forwardStrip(panels [][]float64, nb, k, s0 int, carryIn, m []float64, piv []int, acc []float64) {
	b := s.B
	bb := b * b
	baseA, baseB, baseC, baseF := 0, bb, 2*bb, 3*bb
	ln := len(acc)
	base := k*nb + s0
	row := func(v int) []float64 { return panels[v][base : base+ln] }
	ent := func(r, c int) []float64 { return m[(r*b+c)*ln : (r*b+c+1)*ln] }

	// accPrev sets acc to Σ_t A[r,t]·P[t] with P[t] entry e0 + t·step of
	// the running carry (C′ entry (t,c) is e0 = c, step = B; F′ entry t is
	// e0 = B², step = 1). Carry entry e lives in panel vector baseC + e —
	// F follows C in both layouts — of row k−1, or in carryIn at k = 0.
	fcl := s.ForwardCarryLen()
	accPrev := func(r, e0, step int) {
		clear(acc)
		for t := 0; t < b; t++ {
			av := row(baseA + r*b + t)
			e := e0 + t*step
			if k > 0 {
				lanesAxpy(acc, av, panels[baseC+e][base-nb:base-nb+ln])
				continue
			}
			off := s0*fcl + e
			for i, a := range av {
				acc[i] += a * carryIn[off+i*fcl]
			}
		}
	}

	// M ← B − A·C′_prev; F ← F − A·F′_prev. At the start of a line there
	// is no predecessor: M ← B and F is left as it is.
	havePrev := k > 0 || len(carryIn) > 0
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			mrc, bv := ent(r, c), row(baseB+r*b+c)
			if !havePrev {
				copy(mrc, bv)
				continue
			}
			accPrev(r, c, b)
			for i, v := range bv {
				mrc[i] = v - acc[i]
			}
		}
		if havePrev {
			accPrev(r, bb, 1)
			fr := row(baseF + r)
			for i := range fr {
				fr[i] -= acc[i]
			}
		}
	}

	// Factor M in place per lane (LU with partial pivoting), then solve
	// M·C′ = C column by column and M·F′ = F, in the panel.
	for col := 0; col < b; col++ {
		pc := piv[col*ln : (col+1)*ln]
		mcc := ent(col, col)
		best := acc // |column maximum| so far, per lane
		for i, v := range mcc {
			pc[i], best[i] = col, abs(v)
		}
		for r := col + 1; r < b; r++ {
			for i, v := range ent(r, col) {
				if a := abs(v); a > best[i] {
					pc[i], best[i] = r, a
				}
			}
		}
		for i, p := range pc {
			if p != col {
				for c := 0; c < b; c++ {
					x, y := (col*b+c)*ln+i, (p*b+c)*ln+i
					m[x], m[y] = m[y], m[x]
				}
			}
		}
		for _, d := range mcc {
			if d == 0 {
				panic("sweep: BlockTridiag: singular pivot block")
			}
		}
		for r := col + 1; r < b; r++ {
			f := ent(r, col)
			for i := range f {
				f[i] /= mcc[i]
			}
			for c := col + 1; c < b; c++ {
				mrc, mcol := ent(r, c), ent(col, c)
				for i, fv := range f {
					mrc[i] -= fv * mcol[i]
				}
			}
		}
	}
	for col := 0; col < b; col++ {
		s.solveStrip(panels, baseC+col, b, base, m, piv, ln)
	}
	s.solveStrip(panels, baseF, 1, base, m, piv, ln)
}

// solveStrip is luSolve across a strip of ln lanes: the right-hand side of
// row r is panel vector v0 + r·vs at offset base. All of a lane's row
// interchanges are applied first, then forward and back substitution.
func (s BlockTridiag) solveStrip(panels [][]float64, v0, vs, base int, m []float64, piv []int, ln int) {
	b := s.B
	x := func(r int) []float64 { return panels[v0+r*vs][base : base+ln] }
	ent := func(r, c int) []float64 { return m[(r*b+c)*ln : (r*b+c+1)*ln] }
	for col := 0; col < b; col++ {
		for i, p := range piv[col*ln : (col+1)*ln] {
			if p != col {
				xc, xp := x(col), x(p)
				xc[i], xp[i] = xp[i], xc[i]
			}
		}
	}
	for col := 0; col < b; col++ {
		xc := x(col)
		for r := col + 1; r < b; r++ {
			lanesSubMul(x(r), ent(r, col), xc)
		}
	}
	for r := b - 1; r >= 0; r-- {
		xr := x(r)
		for c := r + 1; c < b; c++ {
			lanesSubMul(xr, ent(r, c), x(c))
		}
		for i, d := range ent(r, r) {
			xr[i] /= d
		}
	}
}

// BackwardBatch implements BatchSolver: X = F′ − C′·X_next per lane, with
// the scalar accumulator order, reading X_next from the already-solved
// panel row k+1 or from the line-major carryIn past the chunk end.
func (s BlockTridiag) BackwardBatch(panels [][]float64, nb int, carryIn, carryOut []float64) {
	b := s.B
	bb := b * b
	baseC, baseF := 2*bb, 3*bb
	n := batchRows(panels[baseF], nb)
	if len(carryIn) != 0 && len(carryIn) != nb*b {
		panic(fmt.Sprintf("sweep: BlockTridiag.BackwardBatch: carryIn length %d, want 0 or %d", len(carryIn), nb*b))
	}
	if len(carryOut) != 0 && len(carryOut) != nb*b {
		panic("sweep: BlockTridiag.BackwardBatch: carryOut length mismatch")
	}

	var aBuf [btMaxStrip]float64
	for s0 := 0; s0 < nb; s0 += btMaxStrip {
		ln := min(btMaxStrip, nb-s0)
		acc := aBuf[:ln]
		for k := n - 1; k >= 0; k-- {
			if k == n-1 && len(carryIn) == 0 {
				continue // the line's last element: X = F′
			}
			base := k*nb + s0
			for r := 0; r < b; r++ {
				clear(acc)
				for t := 0; t < b; t++ {
					cv := panels[baseC+r*b+t][base : base+ln]
					if k < n-1 {
						lanesAxpy(acc, cv, panels[baseF+t][base+nb:base+nb+ln])
						continue
					}
					off := s0*b + t
					for i, c := range cv {
						acc[i] += c * carryIn[off+i*b]
					}
				}
				fr := panels[baseF+r][base : base+ln]
				for i := range fr {
					fr[i] -= acc[i]
				}
			}
		}
	}

	if len(carryOut) > 0 {
		switch {
		case n > 0:
			for t := 0; t < b; t++ {
				for l, v := range panels[baseF+t][:nb] {
					carryOut[l*b+t] = v
				}
			}
		case len(carryIn) > 0:
			copy(carryOut, carryIn)
		default:
			clear(carryOut)
		}
	}
}

// lanesAxpy is acc[i] += a[i]·p[i] over the lanes of a strip.
func lanesAxpy(acc, a, p []float64) {
	p = p[:len(a)]
	acc = acc[:len(a)]
	for i, v := range a {
		acc[i] += v * p[i]
	}
}

// lanesSubMul is x[i] −= m[i]·y[i] over the lanes of a strip.
func lanesSubMul(x, m, y []float64) {
	m = m[:len(x)]
	y = y[:len(x)]
	for i := range x {
		x[i] -= m[i] * y[i]
	}
}
