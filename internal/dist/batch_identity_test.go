package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// requireBitIdentical fails unless every element of got matches want down to
// the exact float64 bit pattern: the executors' batched kernels reproduce the
// serial whole-line scalar solve, not an approximation of it, so the
// tolerance is zero.
func requireBitIdentical(t *testing.T, tag string, want, got []*grid.Grid) {
	t.Helper()
	for v := range want {
		wd, gd := want[v].Data(), got[v].Data()
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("%s: vec %d element %d: serial %v vs executor %v",
					tag, v, i, wd[i], gd[i])
			}
		}
	}
}

// identitySolvers covers every batched kernel family: the first-order
// recurrence, the specialized tridiagonal, the general banded code
// (pentadiagonal), whose backward pass also exercises the PassAccess masks
// that skip gathering the lower bands and scatter only the rhs, a banded
// solver with no super-diagonals, whose backward pass has no carry but
// still divides by the diagonal, and BT's 5×5 block tridiagonal, whose
// masks skip scattering A and B.
func identitySolvers() []sweep.Solver {
	return []sweep.Solver{sweep.Recurrence{}, sweep.Tridiag{}, sweep.NewPenta(), sweep.Banded{KL: 2, KU: 0}, sweep.NewBlockTridiag(5)}
}

func identityGrids(t *testing.T, rng *rand.Rand, solver sweep.Solver, eta []int, dim int) []*grid.Grid {
	t.Helper()
	switch sv := solver.(type) {
	case sweep.Recurrence:
		return makeRecurrenceGrids(rng, eta)
	case sweep.Tridiag:
		return makeBandedGrids(rng, eta, 1, 1, dim)
	case sweep.Banded:
		return makeBandedGrids(rng, eta, sv.KL, sv.KU, dim)
	case sweep.BlockTridiag:
		return makeBlockTriGrids(rng, eta, sv.B, dim)
	}
	t.Fatalf("unknown solver %T", solver)
	return nil
}

// identityBatches spans the interesting panel widths: single-line panels,
// a width that never divides the odd line counts below, and one wider than
// most cross-sections.
var identityBatches = []int{1, 7, 64}

// TestMultiSweepBatchBitIdentical checks the multipartitioned executor
// against the serial oracle — sweep.ChunkedSolve over every global line —
// for every kernel family, sweep dimension and panel width.
func TestMultiSweepBatchBitIdentical(t *testing.T) {
	p, gamma, eta := 8, []int{4, 4, 2}, []int{16, 13, 9}
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, eta, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, solver := range identitySolvers() {
		for dim := range eta {
			gs := identityGrids(t, rng, solver, eta, dim)
			run := func(batch int) []*grid.Grid {
				work := cloneAll(gs)
				ms, err := NewMultiSweep(env, solver, work)
				if err != nil {
					t.Fatal(err)
				}
				ms.Batch = batch
				if _, err := testMachine(p).Run(func(r *sim.Rank) { ms.Run(r, dim) }); err != nil {
					t.Fatalf("%s dim %d batch %d: %v", solver.Name(), dim, batch, err)
				}
				return work
			}
			want := serialSolve(solver, gs, dim)
			for _, batch := range identityBatches {
				tag := fmt.Sprintf("multisweep %s dim %d batch %d", solver.Name(), dim, batch)
				requireBitIdentical(t, tag, want, run(batch))
			}
		}
	}
}

// TestBlockSweepsBatchBitIdentical is the same check for the block
// unipartitioning's local, wavefront and transpose sweeps.
func TestBlockSweepsBatchBitIdentical(t *testing.T) {
	p := 4
	eta := []int{13, 10, 9}
	rng := rand.New(rand.NewSource(12))
	for _, solver := range identitySolvers() {
		modes := []struct {
			name  string
			dim   int // dimension the sweep runs along
			grain int
			exec  func(b *Block, r *sim.Rank, work []*grid.Grid, grain int)
		}{
			{"local", 1, 0, func(b *Block, r *sim.Rank, work []*grid.Grid, _ int) {
				b.LocalSweep(r, 1, solver, work)
			}},
			{"wavefront", 0, 1, func(b *Block, r *sim.Rank, work []*grid.Grid, grain int) {
				b.WavefrontSweep(r, solver, work, grain)
			}},
			{"wavefront", 0, 5, func(b *Block, r *sim.Rank, work []*grid.Grid, grain int) {
				b.WavefrontSweep(r, solver, work, grain)
			}},
			{"transpose", 0, 0, func(b *Block, r *sim.Rank, work []*grid.Grid, _ int) {
				b.TransposeSweep(r, solver, work)
			}},
		}
		for _, mode := range modes {
			gs := identityGrids(t, rng, solver, eta, mode.dim)
			run := func(batch int) []*grid.Grid {
				b, err := NewBlock(p, eta, 0, HandCoded())
				if err != nil {
					t.Fatal(err)
				}
				b.Batch = batch
				work := cloneAll(gs)
				if _, err := testMachine(p).Run(func(r *sim.Rank) {
					mode.exec(b, r, work, mode.grain)
				}); err != nil {
					t.Fatalf("%s %s batch %d: %v", mode.name, solver.Name(), batch, err)
				}
				return work
			}
			want := serialSolve(solver, gs, mode.dim)
			for _, batch := range identityBatches {
				tag := fmt.Sprintf("block %s grain %d %s batch %d", mode.name, mode.grain, solver.Name(), batch)
				requireBitIdentical(t, tag, want, run(batch))
			}
		}
	}
}
