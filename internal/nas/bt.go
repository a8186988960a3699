package nas

import (
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// BT-style benchmark: the NAS BT (Block Tridiagonal) pseudo-application is
// the other line-sweep CFD code the multipartitioning literature targets
// (Naik et al. parallelized exactly this ADI class). Its timestep has the
// same shape as SP — compute_rhs, x/y/z line solves, add — but each line
// solve is a *block* tridiagonal system with dense 5×5 blocks coupling the
// five flow variables. This file provides the structurally faithful
// reproduction: the same synthetic stencil physics as SP driving block
// tridiagonal solves with sweep.BlockTridiag, solving a 5-component state.
//
// Everything the paper says about multipartitioned sweeps applies verbatim:
// only the per-line carries are bigger (a 5×5 block plus a 5-vector per
// line instead of a handful of scalars), which makes BT a good stress of
// the aggregated-communication path.

// BTBlockSize is the block order of the BT solves (five flow variables).
const BTBlockSize = 5

// Modeled per-point flop weights for BT (the real benchmark runs ≈ 2.5×
// the flops of SP per point; the solver's own weights are computed from
// the block algebra and dominate).
const (
	BTFlopsRHS = 650.0
	BTFlopsAdd = 25.0
	// BTFlopsLHSBuild covers assembling three 5×5 blocks per point.
	BTFlopsLHSBuild = 150.0
)

// btVecs returns the number of per-point arrays of the BT solve:
// 3 blocks of B² entries plus the B-component right-hand side.
func btVecs() int { return 3*BTBlockSize*BTBlockSize + BTBlockSize }

// btCoeff is the deterministic block-coefficient generator, indexed so the
// systems are non-constant yet reproducible by every execution mode:
// g is the global row, (r, c) the block entry, and which selects the A (0),
// C (1) or off-diagonal-B (2) block.
func btCoeff(g, r, c, which int) float64 {
	h := (g*31 + r*17 + c*7 + which*13) % 19
	return (float64(h) - 9) / 40 // in [−0.225, 0.225]
}

// BTBlockRow writes the 3·B² block coefficients of global row g of a solve
// along dim over a line of n points into row, in the solver's vector order:
// the A block (coupling to g−1, zero at the line start), the B block
// (diagonal, made block-diagonally dominant) and the C block (coupling to
// g+1, zero at the line end), each entry-major. Every execution mode
// assembles its BT systems through it, so they are identical bit for bit.
func BTBlockRow(g, dim, n int, row *[3 * BTBlockSize * BTBlockSize]float64) {
	const b = BTBlockSize
	const bb = b * b
	for r := 0; r < b; r++ {
		rowSum := 0.0
		for c := 0; c < b; c++ {
			av, cv := 0.0, 0.0
			if g >= 1 {
				av = btCoeff(g+dim, r, c, 0)
			}
			if g < n-1 {
				cv = btCoeff(g+dim, r, c, 1)
			}
			row[r*b+c] = av
			row[2*bb+r*b+c] = cv
			rowSum += abs64(av) + abs64(cv)
			if c != r {
				bv := btCoeff(g+dim, r, c, 2)
				row[bb+r*b+c] = bv
				rowSum += abs64(bv)
			}
		}
		row[bb+r*b+r] = rowSum + 1.5
	}
}

// BuildBlockLHS fills the 3·B² block-coefficient grids for a solve along
// dim over region rect from BTBlockRow.
func BuildBlockLHS(dim int, rect grid.Rect, vecs []*grid.Grid) {
	n := vecs[0].Shape()[dim]
	start := rect.Lo[dim]
	var row [3 * BTBlockSize * BTBlockSize]float64
	data := make([][]float64, len(row))
	for i := range data {
		data[i] = vecs[i].Data()
	}
	vecs[0].EachLine(rect, dim, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			BTBlockRow(start+k, dim, n, &row)
			for v, x := range row {
				data[v][off] = x
			}
			off += l.Stride
		}
	})
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// btSolver wraps the 5×5 block solver; its flop weights follow from the
// block algebra directly, so no inflation is needed (unlike spSolver).
func btSolver() sweep.BlockTridiag { return sweep.NewBlockTridiag(BTBlockSize) }

// btScatterRHS copies the scalar stencil output into the B right-hand-side
// component grids with per-component scaling, over rect.
func btScatterRHS(rhs *grid.Grid, fvecs []*grid.Grid, rect grid.Rect) {
	rd := rhs.Data()
	d := rhs.Dims()
	comps := make([][]float64, len(fvecs))
	for i := range fvecs {
		comps[i] = fvecs[i].Data()
	}
	rhs.EachLine(rect, d-1, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			v := rd[off]
			for c := range comps {
				comps[c][off] = v * (1 + 0.1*float64(c))
			}
			off += l.Stride
		}
	})
}

// btAdd folds the first solution component back into u over rect.
func btAdd(u, f0 *grid.Grid, rect grid.Rect) { Add(u, f0, rect) }

// BTSerialSolve advances u in place by steps BT timesteps — the reference
// implementation.
func BTSerialSolve(u *grid.Grid, steps int) {
	eta := u.Shape()
	rhs := grid.New(eta...)
	vecs := make([]*grid.Grid, btVecs())
	for i := range vecs {
		vecs[i] = grid.New(eta...)
	}
	const bb = BTBlockSize * BTBlockSize
	fvecs := vecs[3*bb:]
	all := u.Bounds()
	solver := btSolver()
	for s := 0; s < steps; s++ {
		ComputeRHS(u, rhs, all)
		btScatterRHS(rhs, fvecs, all)
		for dim := range eta {
			BuildBlockLHS(dim, all, vecs)
			solveAllLines(solver, vecs, all, dim)
		}
		btAdd(u, fvecs[0], all)
	}
}

// CompileBTPlan compiles the BT application's SweepPlan over env, with the
// overlap annotation when o is enabled (the zero Overlap yields the strict
// schedule). Pass it to BTRunPlanned.
func CompileBTPlan(env *dist.Env, o plan.Overlap) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{M: env.M, Eta: env.Eta, Solver: btSolver(), Overlap: o})
}

// BTRun advances the BT pseudo-application on a multipartitioned domain; u
// nil selects model-only mode. In data mode the final u matches
// BTSerialSolve.
func BTRun(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid) (sim.Result, error) {
	return BTRunPlanned(env, mach, steps, u, nil)
}

// BTRunPlanned is BTRun executing a pre-compiled SweepPlan (from
// CompileBTPlan over the same env); pl == nil compiles one internally. An
// overlap-annotated plan selects the boundary-first schedule and
// cross-timestep halo pipelining, exactly as in RunPlanned.
func BTRunPlanned(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid, pl *plan.SweepPlan) (sim.Result, error) {
	modelOnly := u == nil
	var vecs []*grid.Grid
	var rhs *grid.Grid
	var fvecs []*grid.Grid
	if !modelOnly {
		vecs = make([]*grid.Grid, btVecs())
		for i := range vecs {
			vecs[i] = grid.New(env.Eta...)
		}
		rhs = grid.New(env.Eta...)
		fvecs = vecs[3*BTBlockSize*BTBlockSize:]
	}
	ms, err := dist.NewMultiSweep(env, btSolver(), vecs)
	if err != nil {
		return sim.Result{}, err
	}
	ms.Plan = pl
	d := len(env.Eta)
	haloDepth := 2 - env.Overhead.ReplicationDepth
	if haloDepth < 1 {
		haloDepth = 1
	}
	pipeline := pl != nil && pl.Overlap.Enabled
	return mach.Run(func(r *sim.Rank) {
		var haloPre []xport.Request
		for step := 0; step < steps; step++ {
			r.BeginPhase(PhaseHalo)
			env.ExchangeHalosPiped(r, haloDepth, 1, haloPre)
			haloPre = nil
			r.BeginPhase(PhaseRHS)
			env.ComputeOnTiles(r, BTFlopsRHS, tileOp(modelOnly, func(rect grid.Rect) {
				ComputeRHS(u, rhs, rect)
				btScatterRHS(rhs, fvecs, rect)
			}))
			for dim := 0; dim < d; dim++ {
				dim := dim
				r.BeginPhase(PhaseSolve(dim))
				env.ComputeOnTiles(r, BTFlopsLHSBuild, tileOp(modelOnly, func(rect grid.Rect) {
					BuildBlockLHS(dim, rect, vecs)
				}))
				ms.Run(r, dim)
			}
			r.BeginPhase(PhaseAdd)
			if pipeline && step+1 < steps {
				haloPre = env.PostHaloRecvs(r, haloDepth, 1)
			}
			env.ComputeOnTiles(r, BTFlopsAdd, tileOp(modelOnly, func(rect grid.Rect) {
				btAdd(u, fvecs[0], rect)
			}))
		}
	})
}
