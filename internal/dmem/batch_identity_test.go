package dmem

import (
	"math"
	"math/rand"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// strictIdentityGrids builds the global reference system for one solver: a
// diagonally dominant random banded or block tridiagonal system (entries
// coupling past a line end along dim zeroed) or the [a, x] pair of the
// first-order recurrence.
func strictIdentityGrids(rng *rand.Rand, solver sweep.Solver, eta []int, dim int) []*grid.Grid {
	n := eta[dim]
	switch sv := solver.(type) {
	case sweep.Recurrence:
		a := grid.New(eta...)
		x := grid.New(eta...)
		a.FillFunc(func([]int) float64 { return rng.Float64()*1.6 - 0.8 })
		x.FillFunc(func([]int) float64 { return rng.Float64()*4 - 2 })
		return []*grid.Grid{a, x}
	case sweep.BlockTridiag:
		b, bb := sv.B, sv.B*sv.B
		gs := make([]*grid.Grid, sv.NumVecs())
		for v := range gs {
			gs[v] = grid.New(eta...)
			v := v
			gs[v].FillFunc(func(idx []int) float64 {
				switch {
				case v < bb && idx[dim] == 0, v >= 2*bb && v < 3*bb && idx[dim] == n-1:
					return 0 // A at a line's first element, C at its last
				case v >= bb && v < 2*bb && (v-bb)/b == (v-bb)%b:
					return 3 + rng.Float64() // dominant diagonal of B
				case v >= 3*bb:
					return rng.Float64()*10 - 5
				}
				return rng.Float64()*0.4 - 0.2
			})
		}
		return gs
	}
	kl, ku := 1, 1
	if sv, ok := solver.(sweep.Banded); ok {
		kl, ku = sv.KL, sv.KU
	}
	gs := make([]*grid.Grid, kl+ku+2)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	for k := 1; k <= kl; k++ {
		k := k
		gs[k-1].FillFunc(func(idx []int) float64 {
			if idx[dim] < k {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl].FillFunc(func([]int) float64 { return 4 + float64(kl+ku) + rng.Float64() })
	for u := 1; u <= ku; u++ {
		u := u
		gs[kl+u].FillFunc(func(idx []int) float64 {
			if idx[dim] >= n-u {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl+ku+1].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 })
	return gs
}

// serialLines is the oracle: sweep.ChunkedSolve over every whole global
// line along dim, on clones of gs.
func serialLines(solver sweep.Solver, gs []*grid.Grid, dim int) []*grid.Grid {
	out := make([]*grid.Grid, len(gs))
	line := make([][]float64, len(gs))
	for v, g := range gs {
		out[v] = g.Clone()
		line[v] = make([]float64, g.Shape()[dim])
	}
	out[0].EachLine(out[0].Bounds(), dim, func(l grid.Line) {
		for v, g := range out {
			g.Gather(l, line[v])
		}
		sweep.ChunkedSolve(solver, line, nil)
		for v, g := range out {
			g.Scatter(l, line[v])
		}
	})
	return out
}

// TestSweepRunnerBatchBitIdentical proves the strict runner (including the
// PassAccess masks that skip untouched gathers and unwritten scatters)
// reproduces the serial whole-line scalar solve bit for bit, for every
// kernel family, sweep dimension, and panel width — on odd extents so
// partial panels are exercised.
func TestSweepRunnerBatchBitIdentical(t *testing.T) {
	p, gamma, eta := 8, []int{4, 4, 2}, []int{16, 13, 9}
	env := mustEnv(t, p, gamma, eta)
	rng := rand.New(rand.NewSource(21))
	for _, solver := range []sweep.Solver{sweep.Recurrence{}, sweep.Tridiag{}, sweep.NewPenta(), sweep.NewBlockTridiag(5)} {
		for dim := range eta {
			gs := strictIdentityGrids(rng, solver, eta, dim)
			run := func(batch int) []*grid.Grid {
				out := make([]*grid.Grid, len(gs))
				_, err := testMachine(p).Run(func(r *sim.Rank) {
					fields := make([]*Field, len(gs))
					for v := range fields {
						fields[v] = NewField(env, r.ID, 0)
						v := v
						fields[v].FillFunc(func(g []int) float64 { return gs[v].At(g...) })
					}
					runner := NewSweepRunner(solver, fields)
					runner.Batch = batch
					runner.Run(r, dim)
					for v := range fields {
						if g := GatherToRoot(r, fields[v], xport.AlgAuto); g != nil {
							out[v] = g
						}
					}
				})
				if err != nil {
					t.Fatalf("%s dim %d batch %d: %v", solver.Name(), dim, batch, err)
				}
				return out
			}
			want := serialLines(solver, gs, dim)
			for _, batch := range []int{1, 7, 64} {
				got := run(batch)
				for v := range want {
					wd, gd := want[v].Data(), got[v].Data()
					for i := range wd {
						if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
							t.Fatalf("%s dim %d batch %d: vec %d element %d: serial %v vs runner %v",
								solver.Name(), dim, batch, v, i, wd[i], gd[i])
						}
					}
				}
			}
		}
	}
}
