package dmem

import (
	"genmp/internal/adi"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// RunADIOverlap executes the ADI heat integration in strict
// distributed-memory mode: tridiagonal half-steps along every dimension
// with per-rank private storage and payload-borne carries. ADI's
// stencil-free coefficient builds need no halos at all, so the only
// communication is the sweep carries plus the final gather. The returned
// grid (rank 0) matches adi.Problem.SerialSolve bit for bit. An enabled
// Overlap selects the boundary-first schedule (the sweep carries are the
// only pipelined traffic); the final field is bit-identical either way. A
// periodic problem is rejected with adi.ErrPeriodicDistributed before any
// rank starts.
func RunADIOverlap(pb adi.Problem, env *dist.Env, mach *sim.Machine, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	if err := pb.CheckDistributed(); err != nil {
		return nil, sim.Result{}, err
	}
	sweepPlan, err := CompileSweepPlanOverlap(env, sweep.Tridiag{}, o)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var out *grid.Grid
	body := adiBody(pb, env, sweepPlan, &out)
	res, err := mach.Run(func(r *sim.Rank) { body(r) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

// RunADIReal executes ADI on the real-parallel runtime (see RunSPReal). pl
// nil compiles the schedule locally; the final field is Float64bits-
// identical to RunADIOverlap's.
func RunADIReal(pb adi.Problem, env *dist.Env, rm *rt.Machine, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	if err := pb.CheckDistributed(); err != nil {
		return nil, rt.Result{}, err
	}
	if pl == nil {
		var err error
		if pl, err = CompileSweepPlanOverlap(env, sweep.Tridiag{}, o); err != nil {
			return nil, rt.Result{}, err
		}
	}
	var out *grid.Grid
	body := adiBody(pb, env, pl, &out)
	res, err := rm.Run(func(r *rt.Rank) { body(r) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// adiBody builds the per-rank body of the ADI strict run, shared by both
// backends. Only rank 0 writes *out.
func adiBody(pb adi.Problem, env *dist.Env, sweepPlan *plan.SweepPlan, out **grid.Grid) func(t xport.Transport) {
	return func(t xport.Transport) {
		u := NewField(env, t.Rank(), 0)
		init := pb.InitialCondition()
		u.FillFunc(func(g []int) float64 { return init.At(g...) })
		// The fill supplies lower, diag and upper; the backward pass reads
		// only c′ (upper) and the right-hand side, and u itself is the
		// right-hand side, so the solution lands in u.
		vecs := []*Field{nil, nil, NewField(env, t.Rank(), 0), u}
		runner := NewSweepRunner(sweep.Tridiag{}, vecs)
		runner.Plan = sweepPlan
		runner.Fill = adiPanelFill(pb)
		const buildFlops = 4
		for step := 0; step < pb.Steps; step++ {
			for dim := range pb.Eta {
				// The fill builds the coefficients inside the sweep and the
				// solve writes u in place; the build and copy flops are
				// still charged here, as adi.Run charges them, so virtual
				// time does not move.
				t.ComputeFlops(buildFlops * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
				runner.Run(t, dim)
				t.ComputeFlops(1 * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
			}
		}
		if g := GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	}
}

// adiPanelFill supplies lower, diag and upper of ADI's forward pass from
// adi.Problem.Row, computed once per row and broadcast across the lanes.
func adiPanelFill(pb adi.Problem) PanelFill {
	return PanelFill{
		Vecs: []bool{true, true, true, false},
		Func: func(dim, g0, nb, n int, panels [][]float64) {
			rows := len(panels[0]) / nb
			for k := 0; k < rows; k++ {
				lo, dg, up := pb.Row(g0+k, n)
				row := k * nb
				fillLanes(panels[0][row:row+nb], lo)
				fillLanes(panels[1][row:row+nb], dg)
				fillLanes(panels[2][row:row+nb], up)
			}
		},
	}
}
