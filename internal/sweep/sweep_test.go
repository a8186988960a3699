package sweep

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-9

// randomCuts returns 0–3 sorted interior cut points of a length-n line.
func randomCuts(rng *rand.Rand, n int) []int {
	k := rng.Intn(4)
	if k > n-1 {
		k = n - 1
	}
	seen := map[int]bool{}
	var cuts []int
	for len(cuts) < k {
		c := 1 + rng.Intn(n-1)
		if !seen[c] {
			seen[c] = true
			cuts = append(cuts, c)
		}
	}
	for i := range cuts {
		for j := i + 1; j < len(cuts); j++ {
			if cuts[j] < cuts[i] {
				cuts[i], cuts[j] = cuts[j], cuts[i]
			}
		}
	}
	return cuts
}

func TestRecurrenceChunkedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		for k := range a {
			a[k] = rng.Float64()*1.6 - 0.8
			b[k] = rng.Float64()*4 - 2
		}
		want := SolveRecurrence(a, b, 0)
		x := append([]float64(nil), b...)
		ChunkedSolve(Recurrence{}, [][]float64{append([]float64(nil), a...), x}, randomCuts(rng, n))
		for k := range x {
			if math.Abs(x[k]-want[k]) > tol {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, k, x[k], want[k])
			}
		}
	}
}

func TestRecurrenceEveryPointCut(t *testing.T) {
	// Cut between every pair of elements: carries do all the work.
	n := 12
	a := make([]float64, n)
	b := make([]float64, n)
	for k := range a {
		a[k] = 0.5
		b[k] = 1
	}
	want := SolveRecurrence(a, b, 0)
	cuts := make([]int, 0, n-1)
	for c := 1; c < n; c++ {
		cuts = append(cuts, c)
	}
	x := append([]float64(nil), b...)
	ChunkedSolve(Recurrence{}, [][]float64{a, x}, cuts)
	for k := range x {
		if math.Abs(x[k]-want[k]) > tol {
			t.Fatalf("x[%d] = %g, want %g", k, x[k], want[k])
		}
	}
}

// randTridiag builds a random diagonally dominant tridiagonal system.
func randTridiag(rng *rand.Rand, n int) (lower, diag, upper, rhs []float64) {
	lower = make([]float64, n)
	diag = make([]float64, n)
	upper = make([]float64, n)
	rhs = make([]float64, n)
	for k := 0; k < n; k++ {
		if k > 0 {
			lower[k] = rng.Float64()*2 - 1
		}
		if k < n-1 {
			upper[k] = rng.Float64()*2 - 1
		}
		diag[k] = 4 + rng.Float64()
		rhs[k] = rng.Float64()*10 - 5
	}
	return
}

func denseFromTridiag(lower, diag, upper []float64) [][]float64 {
	n := len(diag)
	A := make([][]float64, n)
	for i := range A {
		A[i] = make([]float64, n)
		A[i][i] = diag[i]
		if i > 0 {
			A[i][i-1] = lower[i]
		}
		if i < n-1 {
			A[i][i+1] = upper[i]
		}
	}
	return A
}

func TestSolveTridiagonalAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(30)
		lower, diag, upper, rhs := randTridiag(rng, n)
		want := SolveDense(denseFromTridiag(lower, diag, upper), rhs)
		got := SolveTridiagonal(lower, diag, upper, rhs)
		for k := range got {
			if math.Abs(got[k]-want[k]) > tol {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, k, got[k], want[k])
			}
		}
	}
}

func TestTridiagChunkedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		lower, diag, upper, rhs := randTridiag(rng, n)
		want := SolveDense(denseFromTridiag(lower, diag, upper), rhs)
		vecs := [][]float64{
			append([]float64(nil), lower...),
			append([]float64(nil), diag...),
			append([]float64(nil), upper...),
			append([]float64(nil), rhs...),
		}
		ChunkedSolve(Tridiag{}, vecs, randomCuts(rng, n))
		for k := range want {
			if math.Abs(vecs[3][k]-want[k]) > tol {
				t.Fatalf("trial %d (n=%d): x[%d] = %g, want %g", trial, n, k, vecs[3][k], want[k])
			}
		}
	}
}

// randBanded builds a random diagonally dominant banded system in the
// package's vec layout and the equivalent dense matrix.
func randBanded(rng *rand.Rand, n, kl, ku int) (vecs [][]float64, A [][]float64, rhs []float64) {
	vecs = make([][]float64, kl+ku+2)
	for v := range vecs {
		vecs[v] = make([]float64, n)
	}
	A = make([][]float64, n)
	rhs = make([]float64, n)
	for i := range A {
		A[i] = make([]float64, n)
	}
	for row := 0; row < n; row++ {
		sum := 0.0
		for k := 1; k <= kl; k++ {
			if row-k >= 0 {
				c := rng.Float64()*2 - 1
				vecs[k-1][row] = c
				A[row][row-k] = c
				sum += math.Abs(c)
			}
		}
		for t := 1; t <= ku; t++ {
			if row+t < n {
				c := rng.Float64()*2 - 1
				vecs[kl+t][row] = c
				A[row][row+t] = c
				sum += math.Abs(c)
			}
		}
		d := sum + 1 + rng.Float64()
		vecs[kl][row] = d
		A[row][row] = d
		r := rng.Float64()*10 - 5
		vecs[kl+ku+1][row] = r
		rhs[row] = r
	}
	return
}

func TestBandedWholeLineMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, band := range []Banded{{1, 1}, {2, 2}, {1, 2}, {2, 1}, {3, 3}, {1, 0}, {2, 0}} {
		for trial := 0; trial < 40; trial++ {
			n := band.KL + band.KU + 1 + rng.Intn(30)
			vecs, A, rhs := randBanded(rng, n, band.KL, band.KU)
			want := SolveDense(A, rhs)
			ChunkedSolve(band, vecs, nil)
			x := vecs[band.KL+band.KU+1]
			for k := range want {
				if math.Abs(x[k]-want[k]) > tol {
					t.Fatalf("band %v trial %d: x[%d] = %g, want %g", band, trial, k, x[k], want[k])
				}
			}
		}
	}
}

func TestBandedChunkedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, band := range []Banded{{1, 1}, {2, 2}, {2, 1}, {1, 2}, {1, 0}, {2, 0}} {
		for trial := 0; trial < 120; trial++ {
			n := 4 + rng.Intn(40)
			vecs, A, rhs := randBanded(rng, n, band.KL, band.KU)
			want := SolveDense(A, rhs)
			ChunkedSolve(band, vecs, randomCuts(rng, n))
			x := vecs[band.KL+band.KU+1]
			for k := range want {
				if math.Abs(x[k]-want[k]) > tol {
					t.Fatalf("band %v trial %d (n=%d): x[%d] = %g, want %g", band, trial, n, k, x[k], want[k])
				}
			}
		}
	}
}

func TestBandedTinyChunks(t *testing.T) {
	// Chunks of size 1 everywhere: shorter than KL and KU, exercising the
	// carry-window padding paths.
	rng := rand.New(rand.NewSource(61))
	band := NewPenta()
	n := 9
	vecs, A, rhs := randBanded(rng, n, band.KL, band.KU)
	want := SolveDense(A, rhs)
	cuts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ChunkedSolve(band, vecs, cuts)
	x := vecs[band.KL+band.KU+1]
	for k := range want {
		if math.Abs(x[k]-want[k]) > tol {
			t.Fatalf("x[%d] = %g, want %g", k, x[k], want[k])
		}
	}
}

func TestBandedMatchesTridiag(t *testing.T) {
	// Banded(1,1) and Tridiag must agree.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(25)
		lower, diag, upper, rhs := randTridiag(rng, n)
		triVecs := [][]float64{
			append([]float64(nil), lower...),
			append([]float64(nil), diag...),
			append([]float64(nil), upper...),
			append([]float64(nil), rhs...),
		}
		bandVecs := [][]float64{
			append([]float64(nil), lower...),
			append([]float64(nil), diag...),
			append([]float64(nil), upper...),
			append([]float64(nil), rhs...),
		}
		cuts := randomCuts(rng, n)
		ChunkedSolve(Tridiag{}, triVecs, cuts)
		ChunkedSolve(Banded{1, 1}, bandVecs, cuts)
		for k := 0; k < n; k++ {
			if math.Abs(triVecs[3][k]-bandVecs[3][k]) > tol {
				t.Fatalf("trial %d: tridiag %g vs banded %g at %d", trial, triVecs[3][k], bandVecs[3][k], k)
			}
		}
	}
}

func TestSolverMetadata(t *testing.T) {
	cases := []struct {
		s        Solver
		nv, f, b int
	}{
		{Recurrence{}, 2, 1, 0},
		{Tridiag{}, 4, 2, 1},
		{Banded{2, 2}, 6, 8, 2},
		{Banded{1, 1}, 4, 3, 1},
	}
	for _, c := range cases {
		if c.s.NumVecs() != c.nv || c.s.ForwardCarryLen() != c.f || c.s.BackwardCarryLen() != c.b {
			t.Errorf("%s: metadata (%d, %d, %d), want (%d, %d, %d)", c.s.Name(),
				c.s.NumVecs(), c.s.ForwardCarryLen(), c.s.BackwardCarryLen(), c.nv, c.f, c.b)
		}
		if c.s.FlopsPerElement() <= 0 {
			t.Errorf("%s: FlopsPerElement must be positive", c.s.Name())
		}
	}
}

func TestSolveDenseOracle(t *testing.T) {
	// Known 2×2 system.
	x := SolveDense([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if math.Abs(x[0]-1) > tol || math.Abs(x[1]-3) > tol {
		t.Errorf("SolveDense = %v, want [1 3]", x)
	}
	// Requires pivoting.
	x = SolveDense([][]float64{{0, 1}, {1, 0}}, []float64{2, 3})
	if math.Abs(x[0]-3) > tol || math.Abs(x[1]-2) > tol {
		t.Errorf("SolveDense with pivot = %v, want [3 2]", x)
	}
}

func TestTridiagZeroPivotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero pivot should panic")
		}
	}()
	vecs := [][]float64{{0, 1}, {0, 0}, {0, 0}, {1, 1}} // diag[0] = 0
	Tridiag{}.Forward(vecs, nil, nil)
}

func BenchmarkTridiagForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1024
	lower, diag, upper, rhs := randTridiag(rng, n)
	vecs := [][]float64{lower, diag, upper, rhs}
	work := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range vecs {
			copy(work[v], vecs[v])
		}
		ChunkedSolve(Tridiag{}, work, nil)
	}
}

func BenchmarkPentaForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	band := NewPenta()
	vecs, _, _ := randBanded(rng, n, band.KL, band.KU)
	work := make([][]float64, len(vecs))
	for v := range work {
		work[v] = make([]float64, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range vecs {
			copy(work[v], vecs[v])
		}
		ChunkedSolve(band, work, nil)
	}
}
