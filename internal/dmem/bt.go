package dmem

import (
	"fmt"

	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// RunBTOverlap executes the BT pseudo-application (5×5 block tridiagonal
// line solves) in strict distributed-memory mode. The returned grid (rank
// 0) matches nas.BTSerialSolve elementwise. An enabled Overlap selects the
// boundary-first schedule with cross-timestep halo pipelining (see
// RunSPOverlap); the final field is bit-identical either way.
func RunBTOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	if err := btCheck(env); err != nil {
		return nil, sim.Result{}, err
	}
	solver := sweep.NewBlockTridiag(nas.BTBlockSize)
	sweepPlan, err := CompileSweepPlanOverlap(env, solver, o)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var out *grid.Grid
	body := btBody(env, solver, sweepPlan, steps, o, &out)
	res, err := mach.Run(func(r *sim.Rank) { body(r) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

// RunBTReal executes BT on the real-parallel runtime (see RunSPReal). pl
// nil compiles the schedule locally; the final field is Float64bits-
// identical to RunBTOverlap's.
func RunBTReal(env *dist.Env, rm *rt.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	if err := btCheck(env); err != nil {
		return nil, rt.Result{}, err
	}
	solver := sweep.NewBlockTridiag(nas.BTBlockSize)
	if pl == nil {
		var err error
		if pl, err = CompileSweepPlanOverlap(env, solver, o); err != nil {
			return nil, rt.Result{}, err
		}
	}
	var out *grid.Grid
	body := btBody(env, solver, pl, steps, o, &out)
	res, err := rm.Run(func(r *rt.Rank) { body(r) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// btCheck validates tile thickness against the BT halo depth.
func btCheck(env *dist.Env) error {
	const haloDepth = 2
	gamma := env.M.Gamma()
	for dim := range env.Eta {
		if gamma[dim] > 1 && env.Eta[dim]/gamma[dim] < haloDepth {
			return fmt.Errorf("dmem: tiles along dim %d are thinner than the halo depth %d", dim, haloDepth)
		}
	}
	return nil
}

// btBody builds the per-rank body of the BT strict run, shared by both
// backends. Only rank 0 writes *out.
func btBody(env *dist.Env, solver sweep.Solver, sweepPlan *plan.SweepPlan, steps int, o plan.Overlap, out **grid.Grid) func(t xport.Transport) {
	const haloDepth = 2
	bb := nas.BTBlockSize * nas.BTBlockSize
	return func(t xport.Transport) {
		u := NewField(env, t.Rank(), haloDepth)
		u.FillFunc(initialAt(env.Eta))
		rhs := NewField(env, t.Rank(), 0)
		// The fill supplies the A, B and C blocks; the backward pass reads
		// only C′ and F, so A and B get no field.
		vecs := make([]*Field, solver.NumVecs())
		for v := 2 * bb; v < len(vecs); v++ {
			vecs[v] = NewField(env, t.Rank(), 0)
		}
		fvecs := vecs[3*bb:]
		runner := NewSweepRunner(solver, vecs)
		runner.Plan = sweepPlan
		runner.Fill = btPanelFill()

		var haloPre []xport.Request
		for step := 0; step < steps; step++ {
			u.ExchangeHalosPiped(t, haloPre)
			haloPre = nil
			strictComputeRHS(u, rhs)
			strictScatterBTRHS(rhs, fvecs)
			t.ComputeFlops(nas.BTFlopsRHS * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
			for dim := range env.Eta {
				// The blocks are built inside the sweep, by the fill; the
				// charge stays here so virtual time does not move.
				t.ComputeFlops(nas.BTFlopsLHSBuild * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
				runner.Run(t, dim)
			}
			if o.Enabled && step+1 < steps {
				haloPre = u.PostHaloRecvs(t)
			}
			strictAdd(u, fvecs[0])
			t.ComputeFlops(nas.BTFlopsAdd * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
		}
		if g := GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	}
}

// strictScatterBTRHS copies the scalar stencil output into the B solution
// components with the same scaling as nas.btScatterRHS.
func strictScatterBTRHS(rhs *Field, fvecs []*Field) {
	for i := 0; i < rhs.NumTiles(); i++ {
		src := rhs.TileGrid(i).Data()
		for c, f := range fvecs {
			dst := f.TileGrid(i).Data()
			scale := 1 + 0.1*float64(c)
			for k, v := range src {
				dst[k] = v * scale
			}
		}
	}
}

// btPanelFill supplies the A, B and C blocks of BT's forward pass: every
// vector but the B right-hand-side components.
func btPanelFill() PanelFill {
	const blocks = 3 * nas.BTBlockSize * nas.BTBlockSize
	vecs := make([]bool, blocks+nas.BTBlockSize)
	for v := range blocks {
		vecs[v] = true
	}
	return PanelFill{Vecs: vecs, Func: fillBTPanels}
}

// fillBTPanels writes the A, B and C blocks of each row from
// nas.BTBlockRow, computed once per row and broadcast across the nb lanes.
func fillBTPanels(dim, g0, nb, n int, panels [][]float64) {
	var row [3 * nas.BTBlockSize * nas.BTBlockSize]float64
	rows := len(panels[0]) / nb
	for k := 0; k < rows; k++ {
		nas.BTBlockRow(g0+k, dim, n, &row)
		lo := k * nb
		for v, x := range row {
			fillLanes(panels[v][lo:lo+nb], x)
		}
	}
}
