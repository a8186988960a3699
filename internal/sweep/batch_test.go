package sweep

import (
	"math"
	"math/rand"
	"testing"
)

// batchSolvers enumerates every solver with a deterministic system
// generator producing elimination-stable (diagonally dominant) vectors.
func batchSolvers() []Solver {
	return []Solver{
		Recurrence{},
		Tridiag{},
		Banded{KL: 1, KU: 1},
		NewPenta(),
		Banded{KL: 3, KU: 2},
		Banded{KL: 1, KU: 3},
		Banded{KL: 2, KU: 0},
		NewBlockTridiag(1),
		NewBlockTridiag(2),
		NewBlockTridiag(5),
	}
}

// batchWidths are the panel widths every identity test covers: single-line
// panels, a width that divides none of the line counts, the executors'
// largest test width, and one past a full BlockTridiag strip.
var batchWidths = []int{1, 7, 64, 97}

// randomLine builds one line's vecs for solver s: diagonally dominant with
// band entries that reach outside the line zeroed, the Solver contract.
func randomLine(s Solver, n int, rng *rand.Rand) [][]float64 {
	vecs := make([][]float64, s.NumVecs())
	for v := range vecs {
		vecs[v] = make([]float64, n)
		for k := range vecs[v] {
			vecs[v][k] = rng.Float64()*2 - 1
		}
	}
	switch sv := s.(type) {
	case Recurrence:
		for k := range vecs[0] {
			vecs[0][k] *= 0.5 // keep the recurrence stable
		}
	case Tridiag:
		for k := 0; k < n; k++ {
			vecs[1][k] = 4 + rng.Float64() // dominant diagonal
		}
		vecs[0][0] = 0
		vecs[2][n-1] = 0
	case Banded:
		kl, ku := sv.KL, sv.KU
		for k := 0; k < n; k++ {
			vecs[kl][k] = 2*float64(kl+ku) + 1 + rng.Float64()
			for j := 1; j <= kl; j++ {
				if k-j < 0 {
					vecs[j-1][k] = 0
				}
			}
			for t := 1; t <= ku; t++ {
				if k+t >= n {
					vecs[kl+t][k] = 0
				}
			}
		}
	case BlockTridiag:
		dominateBlocks(sv, vecs, rng)
		bb := sv.B * sv.B
		for e := 0; e < bb; e++ {
			vecs[e][0] = 0        // A at the line's first element
			vecs[2*bb+e][n-1] = 0 // C at its last
		}
	}
	return vecs
}

// dominateBlocks makes every diagonal block of a BlockTridiag line
// block-diagonally dominant: its diagonal outweighs the rest of its row in
// A, B and C together (every entry is drawn from [−1, 1)).
func dominateBlocks(s BlockTridiag, vecs [][]float64, rng *rand.Rand) {
	b, bb := s.B, s.B*s.B
	for k := range vecs[0] {
		for r := 0; r < b; r++ {
			vecs[bb+r*b+r][k] = float64(3*b) + rng.Float64()
		}
	}
}

// packPanel lays nb lines' vecs out as SoA panels.
func packPanel(lines [][][]float64, nv, n, nb int) [][]float64 {
	panels := make([][]float64, nv)
	for v := range panels {
		panels[v] = make([]float64, n*nb)
		for b, vecs := range lines {
			for k := 0; k < n; k++ {
				panels[v][k*nb+b] = vecs[v][k]
			}
		}
	}
	return panels
}

// requireSamePanel asserts exact (bitwise) equality of the panel against
// the per-line scalar results.
func requireSamePanel(t *testing.T, panels [][]float64, lines [][][]float64, nv, n, nb int) {
	t.Helper()
	for v := 0; v < nv; v++ {
		for b := range lines {
			for k := 0; k < n; k++ {
				got, want := panels[v][k*nb+b], lines[b][v][k]
				if got != want {
					t.Fatalf("vec %d line %d elem %d: batched %v != scalar %v", v, b, k, got, want)
				}
			}
		}
	}
}

// TestBatchBitIdentityWholeLines runs full lines (nil carries both ways)
// through the scalar and batched kernels and requires exact equality.
func TestBatchBitIdentityWholeLines(t *testing.T) {
	for _, s := range batchSolvers() {
		for _, n := range []int{1, 2, 3, 5, 17, 33} {
			for _, nb := range batchWidths {
				rng := rand.New(rand.NewSource(int64(100*n + nb)))
				if minN := minLineLen(s); n < minN {
					continue // bands must fit in the line
				}
				scalar := make([][][]float64, nb)
				batched := make([][][]float64, nb)
				for b := 0; b < nb; b++ {
					scalar[b] = randomLine(s, n, rng)
					batched[b] = cloneVecs(scalar[b])
				}
				nv := s.NumVecs()
				panels := packPanel(batched, nv, n, nb)
				for b := 0; b < nb; b++ {
					s.Forward(scalar[b], nil, nil)
					s.Backward(scalar[b], nil, nil)
				}
				s.ForwardBatch(panels, nb, nil, nil)
				s.BackwardBatch(panels, nb, nil, nil)
				requireSamePanel(t, panels, scalar, nv, n, nb)
			}
		}
	}
}

// TestBatchBitIdentityChunked cuts lines into chunks, threads forward and
// backward carries through both paths, and requires exact equality of both
// the results and every intermediate carry.
func TestBatchBitIdentityChunked(t *testing.T) {
	for _, s := range batchSolvers() {
		n := 29 // odd, not a multiple of any batch size
		cuts := [][]int{{13}, {5, 11, 20}, {1, 2, 3, 28}}
		for ci, cut := range cuts {
			for _, nb := range batchWidths {
				rng := rand.New(rand.NewSource(int64(1000*ci + nb)))
				scalar := make([][][]float64, nb)
				batched := make([][][]float64, nb)
				for b := 0; b < nb; b++ {
					scalar[b] = randomLine(s, n, rng)
					batched[b] = cloneVecs(scalar[b])
				}
				nv := s.NumVecs()

				// Scalar oracle: ChunkedSolve per line.
				for b := 0; b < nb; b++ {
					ChunkedSolve(s, scalar[b], cut)
				}

				// Batched: same cuts, carries threaded between chunk panels
				// in the line-major wire layout.
				bounds := append(append([]int{0}, cut...), n)
				fLen, bLen := s.ForwardCarryLen(), s.BackwardCarryLen()
				chunkPanels := make([][][]float64, len(bounds)-1)
				chunkViews := make([][][][]float64, len(bounds)-1)
				for c := 0; c+1 < len(bounds); c++ {
					lo, hi := bounds[c], bounds[c+1]
					views := make([][][]float64, nb)
					for b := 0; b < nb; b++ {
						views[b] = make([][]float64, nv)
						for v := 0; v < nv; v++ {
							views[b][v] = batched[b][v][lo:hi]
						}
					}
					chunkViews[c] = views
					chunkPanels[c] = packPanel(views, nv, hi-lo, nb)
				}
				var cIn, cOut []float64
				if fLen > 0 {
					cIn = make([]float64, nb*fLen)
					cOut = make([]float64, nb*fLen)
				}
				for c := range chunkPanels {
					if c == 0 {
						s.ForwardBatch(chunkPanels[c], nb, nil, cOut)
					} else {
						s.ForwardBatch(chunkPanels[c], nb, cIn, cOut)
					}
					cIn, cOut = cOut, cIn
				}
				if HasBackward(s) {
					bIn := make([]float64, nb*bLen)
					bOut := make([]float64, nb*bLen)
					for c := len(chunkPanels) - 1; c >= 0; c-- {
						if c == len(chunkPanels)-1 {
							s.BackwardBatch(chunkPanels[c], nb, nil, bOut)
						} else {
							s.BackwardBatch(chunkPanels[c], nb, bIn, bOut)
						}
						bIn, bOut = bOut, bIn
					}
				}

				// Unpack each chunk panel and compare against the scalar
				// lines, exactly.
				for c := range chunkPanels {
					lo, hi := bounds[c], bounds[c+1]
					cn := hi - lo
					for v := 0; v < nv; v++ {
						for b := 0; b < nb; b++ {
							for k := 0; k < cn; k++ {
								got := chunkPanels[c][v][k*nb+b]
								want := scalar[b][v][lo+k]
								if got != want {
									t.Fatalf("%s cut %v nb=%d: vec %d line %d elem %d: batched %v != scalar %v",
										s.Name(), cut, nb, v, b, lo+k, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchCarriesMatchScalar checks the emitted carries themselves (both
// directions) equal the scalar ones bit for bit, including the short-chunk
// pass-through cases (chunk shorter than the band).
func TestBatchCarriesMatchScalar(t *testing.T) {
	for _, s := range batchSolvers() {
		for _, n := range []int{0, 1, 2, 3, 9} {
			for _, nb := range batchWidths {
				batchCarriesCase(t, s, n, nb)
			}
		}
	}
}

// TestBlockTridiagBatchHeapScratch covers a block size whose factors do
// not fit the kernel's stack scratch even one lane at a time (B > 32).
func TestBlockTridiagBatchHeapScratch(t *testing.T) {
	for _, nb := range []int{1, 3} {
		batchCarriesCase(t, NewBlockTridiag(33), 2, nb)
	}
}

// batchCarriesCase is one solver, chunk length and panel width of
// TestBatchCarriesMatchScalar.
func batchCarriesCase(t *testing.T, s Solver, n, nb int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100*n + nb)))
	fLen, bLen := s.ForwardCarryLen(), s.BackwardCarryLen()

	// Random (stable-looking) incoming carries, as if a previous
	// chunk had produced them. For Banded forward the carry rows
	// must have usable pivots, so fill diagonally-dominant rows.
	scalar := make([][][]float64, nb)
	batched := make([][][]float64, nb)
	fIn := make([]float64, nb*fLen)
	for i := range fIn {
		fIn[i] = rng.Float64() + 1.5
	}
	for b := 0; b < nb; b++ {
		scalar[b] = randomLineInterior(s, n, rng)
		batched[b] = cloneVecs(scalar[b])
	}
	nv := s.NumVecs()
	panels := packPanel(batched, nv, n, nb)

	fOutScalar := make([]float64, nb*fLen)
	for b := 0; b < nb; b++ {
		s.Forward(scalar[b], fIn[b*fLen:(b+1)*fLen], fOutScalar[b*fLen:(b+1)*fLen])
	}
	fOutBatch := make([]float64, nb*fLen)
	s.ForwardBatch(panels, nb, fIn, fOutBatch)
	for i := range fOutScalar {
		if fOutScalar[i] != fOutBatch[i] {
			t.Fatalf("%s n=%d nb=%d: forward carry[%d]: batched %v != scalar %v", s.Name(), n, nb, i, fOutBatch[i], fOutScalar[i])
		}
	}

	if HasBackward(s) {
		bIn := make([]float64, nb*bLen)
		for i := range bIn {
			bIn[i] = rng.Float64()
		}
		bOutScalar := make([]float64, nb*bLen)
		for b := 0; b < nb; b++ {
			s.Backward(scalar[b], bIn[b*bLen:(b+1)*bLen], bOutScalar[b*bLen:(b+1)*bLen])
		}
		bOutBatch := make([]float64, nb*bLen)
		s.BackwardBatch(panels, nb, bIn, bOutBatch)
		for i := range bOutScalar {
			if bOutScalar[i] != bOutBatch[i] {
				t.Fatalf("%s n=%d nb=%d: backward carry[%d]: batched %v != scalar %v", s.Name(), n, nb, i, bOutBatch[i], bOutScalar[i])
			}
		}
	}
	requireSamePanel(t, panels, scalar, nv, n, nb)
}

// randomLineInterior builds vecs for a chunk in the middle of a line: band
// entries may reach outside the chunk (the carries cover them).
func randomLineInterior(s Solver, n int, rng *rand.Rand) [][]float64 {
	vecs := make([][]float64, s.NumVecs())
	for v := range vecs {
		vecs[v] = make([]float64, n)
		for k := range vecs[v] {
			vecs[v][k] = rng.Float64()*2 - 1
		}
	}
	switch sv := s.(type) {
	case Recurrence:
		for k := range vecs[0] {
			vecs[0][k] *= 0.5
		}
	case Tridiag:
		for k := 0; k < n; k++ {
			vecs[1][k] = 4 + rng.Float64()
		}
	case Banded:
		kl, ku := sv.KL, sv.KU
		for k := 0; k < n; k++ {
			vecs[kl][k] = 2*float64(kl+ku) + 1 + rng.Float64()
		}
	case BlockTridiag:
		dominateBlocks(sv, vecs, rng)
	}
	return vecs
}

func minLineLen(s Solver) int {
	if b, ok := s.(Banded); ok {
		return max(b.KL, b.KU) + 1
	}
	return 1
}

func cloneVecs(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for v := range vecs {
		out[v] = append([]float64(nil), vecs[v]...)
	}
	return out
}

// TestChunkedSolveWSMatchesChunkedSolve checks the workspace variant is
// exactly the allocating one, and allocation-free once warm.
func TestChunkedSolveWSMatchesChunkedSolve(t *testing.T) {
	for _, s := range batchSolvers() {
		rng := rand.New(rand.NewSource(7))
		n := 31
		a := randomLine(s, n, rng)
		b := cloneVecs(a)
		cuts := []int{4, 11, 19}
		ChunkedSolve(s, a, cuts)
		var ws Workspace
		ChunkedSolveWS(s, b, cuts, &ws)
		for v := range a {
			for k := range a[v] {
				if a[v][k] != b[v][k] {
					t.Fatalf("%s: vec %d elem %d: WS %v != plain %v", s.Name(), v, k, b[v][k], a[v][k])
				}
			}
		}
	}
}

// TestChunkedSolveWSZeroAllocs: the workspace variant must not allocate in
// steady state — it runs inside every executor's inner loop.
func TestChunkedSolveWSZeroAllocs(t *testing.T) {
	s := Tridiag{}
	rng := rand.New(rand.NewSource(3))
	vecs := randomLine(s, 64, rng)
	orig := cloneVecs(vecs)
	cuts := []int{16, 32, 48}
	var ws Workspace
	ChunkedSolveWS(s, vecs, cuts, &ws) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		for v := range vecs {
			copy(vecs[v], orig[v])
		}
		ChunkedSolveWS(s, vecs, cuts, &ws)
	})
	if allocs != 0 {
		t.Fatalf("ChunkedSolveWS allocates %v per run, want 0", allocs)
	}
}

// TestBatchKernelZeroAllocs: the batched kernels themselves must never
// allocate.
func TestBatchKernelZeroAllocs(t *testing.T) {
	for _, s := range []Solver{Recurrence{}, Tridiag{}, NewPenta(), NewBlockTridiag(5)} {
		rng := rand.New(rand.NewSource(11))
		nb, n := 16, 32
		lines := make([][][]float64, nb)
		for b := 0; b < nb; b++ {
			lines[b] = randomLineInterior(s, n, rng)
		}
		nv := s.NumVecs()
		panels := packPanel(lines, nv, n, nb)
		save := make([][]float64, nv)
		for v := range panels {
			save[v] = append([]float64(nil), panels[v]...)
		}
		fIn := make([]float64, nb*s.ForwardCarryLen())
		for i := range fIn {
			fIn[i] = rng.Float64() + 1.5
		}
		fOut := make([]float64, nb*s.ForwardCarryLen())
		bIn := make([]float64, nb*s.BackwardCarryLen())
		bOut := make([]float64, nb*s.BackwardCarryLen())
		allocs := testing.AllocsPerRun(10, func() {
			for v := range panels {
				copy(panels[v], save[v])
			}
			s.ForwardBatch(panels, nb, fIn, fOut)
			s.BackwardBatch(panels, nb, bIn, bOut)
		})
		if allocs != 0 {
			t.Fatalf("%s batch kernels allocate %v per run, want 0", s.Name(), allocs)
		}
	}
}

// TestBlockTridiagBatchPerLanePivots builds a panel whose lanes choose
// different partial pivots: lane b's diagonal blocks are a dominant matrix
// with its rows rotated by b mod B, so in every lane but the unrotated ones
// each column's maximum sits off the diagonal and luFactor swaps rows. BT's
// own coefficients never pivot, so this is the test that reaches the
// per-lane swap path of ForwardBatch.
func TestBlockTridiagBatchPerLanePivots(t *testing.T) {
	s := NewBlockTridiag(5)
	b, bb := s.B, s.B*s.B
	nb, n := 7, 11
	rng := rand.New(rand.NewSource(5))
	lines := make([][][]float64, nb)
	for l := range lines {
		vecs := make([][]float64, s.NumVecs())
		for v := range vecs {
			vecs[v] = make([]float64, n)
			for k := range vecs[v] {
				vecs[v][k] = 0.1 * (rng.Float64()*2 - 1)
			}
		}
		shift := l % b
		for k := 0; k < n; k++ {
			for c := 0; c < b; c++ {
				vecs[bb+((c+shift)%b)*b+c][k] = 10 + rng.Float64()
			}
			for r := 0; r < b; r++ {
				vecs[3*bb+r][k] = rng.Float64()*10 - 5
			}
		}
		for e := 0; e < bb; e++ {
			vecs[e][0], vecs[2*bb+e][n-1] = 0, 0
		}
		lines[l] = vecs
	}

	// The first element's block is factored as it stands (no predecessor):
	// check that the rotated lanes really pivot off the diagonal.
	pivoted := 0
	for l, vecs := range lines {
		m := make([]float64, bb)
		for e := range m {
			m[e] = vecs[bb+e][0]
		}
		piv := make([]int, b)
		luFactor(m, piv, b)
		offDiag := false
		for col, p := range piv {
			offDiag = offDiag || p != col
		}
		if offDiag != (l%b != 0) {
			t.Fatalf("lane %d: pivots %v, want off-diagonal pivots exactly in the rotated lanes", l, piv)
		}
		if offDiag {
			pivoted++
		}
	}
	if pivoted == 0 || pivoted == nb {
		t.Fatalf("%d of %d lanes pivot; the panel must mix pivoting and non-pivoting lanes", pivoted, nb)
	}

	// Whole lines, then the same lines cut in two with threaded carries.
	for _, cut := range [][]int{nil, {4}} {
		scalar := make([][][]float64, nb)
		for l := range lines {
			scalar[l] = cloneVecs(lines[l])
			ChunkedSolve(s, scalar[l], cut)
		}
		bounds := append(append([]int{0}, cut...), n)
		panels := make([][][]float64, len(bounds)-1)
		for c := range panels {
			views := make([][][]float64, nb)
			for l := range lines {
				views[l] = make([][]float64, s.NumVecs())
				for v := range views[l] {
					views[l][v] = lines[l][v][bounds[c]:bounds[c+1]]
				}
			}
			panels[c] = packPanel(views, s.NumVecs(), bounds[c+1]-bounds[c], nb)
		}
		var fIn []float64
		for c := range panels {
			fOut := make([]float64, nb*s.ForwardCarryLen())
			s.ForwardBatch(panels[c], nb, fIn, fOut)
			fIn = fOut
		}
		var bIn []float64
		for c := len(panels) - 1; c >= 0; c-- {
			bOut := make([]float64, nb*s.BackwardCarryLen())
			s.BackwardBatch(panels[c], nb, bIn, bOut)
			bIn = bOut
		}
		for c := range panels {
			cn := bounds[c+1] - bounds[c]
			for v := 0; v < s.NumVecs(); v++ {
				for l := range lines {
					for k := 0; k < cn; k++ {
						got, want := panels[c][v][k*nb+l], scalar[l][v][bounds[c]+k]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("cut %v: vec %d lane %d elem %d: batched %v != scalar %v", cut, v, l, bounds[c]+k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPassMasksHold checks every solver's PassAccess declaration against
// its batched passes: poisoning the vectors a pass does not touch with NaN
// changes none of its results, and the vectors it does not write keep
// their bits.
func TestPassMasksHold(t *testing.T) {
	for _, s := range batchSolvers() {
		n, nb := 9, 7
		rng := rand.New(rand.NewSource(13))
		lines := make([][][]float64, nb)
		for b := range lines {
			lines[b] = randomLine(s, n, rng)
		}
		nv := s.NumVecs()
		clean := packPanel(lines, nv, n, nb)
		for _, backward := range []bool{false, true} {
			if backward {
				s.ForwardBatch(clean, nb, nil, nil)
			}
			touched, written := PassMasks(s, backward)
			poisoned := make([][]float64, nv)
			for v := range clean {
				poisoned[v] = append([]float64(nil), clean[v]...)
				if !MaskOn(touched, v) {
					for i := range poisoned[v] {
						poisoned[v][i] = math.NaN()
					}
				}
			}
			before := make([][]float64, nv)
			for v := range clean {
				before[v] = append([]float64(nil), clean[v]...)
			}
			pass := s.ForwardBatch
			if backward {
				pass = s.BackwardBatch
			}
			pass(clean, nb, nil, nil)
			pass(poisoned, nb, nil, nil)
			for v := 0; v < nv; v++ {
				for i := range clean[v] {
					switch {
					case !MaskOn(written, v) && math.Float64bits(clean[v][i]) != math.Float64bits(before[v][i]):
						t.Fatalf("%s backward=%v: vec %d is declared unwritten but element %d changed", s.Name(), backward, v, i)
					case MaskOn(written, v) && math.Float64bits(clean[v][i]) != math.Float64bits(poisoned[v][i]):
						t.Fatalf("%s backward=%v: vec %d element %d depends on a vector declared untouched", s.Name(), backward, v, i)
					}
				}
			}
		}
	}
}
