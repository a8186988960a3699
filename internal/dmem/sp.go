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

// RunSPOverlap executes the SP pseudo-application in strict
// distributed-memory mode: every rank holds private padded copies of its
// tiles, stencil halos and sweep carries move in real message payloads, and
// the final state is gathered to rank 0 over messages. The returned grid
// (non-nil only from the outer call, assembled on rank 0) matches
// nas.SerialSolve elementwise.
//
// Every tile must be at least haloDepth (2) cells thick in every cut
// dimension so a single neighbor's face covers the stencil reach.
//
// The zero Overlap runs the strict schedule. Enabled, the sweep plan is
// compiled with the overlap annotation (each phase solves its boundary
// lines, posts the carry with Isend and solves the interior while the
// message flies), and the stencil halos pipeline across timesteps (each
// step preposts the next step's halo receives before the add phase); the
// final field is bit-identical either way.
func RunSPOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	if err := spCheck(env); err != nil {
		return nil, sim.Result{}, err
	}
	solver := sweep.NewPenta()
	sweepPlan, err := CompileSweepPlanOverlap(env, solver, o)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var out *grid.Grid
	body := spBody(env, solver, sweepPlan, steps, o, &out)
	res, err := mach.Run(func(r *sim.Rank) { body(r) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

// RunSPReal executes SP on the real-parallel runtime: the same per-rank
// body, the same compiled schedule, measured in wall-clock time. pl is the
// schedule to execute — typically shipped via obs.WritePlanJSON/
// obs.PlanFromJSON so workers load rather than recompile it; nil compiles
// locally. The final field is Float64bits-identical to RunSPOverlap's.
func RunSPReal(env *dist.Env, rm *rt.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	if err := spCheck(env); err != nil {
		return nil, rt.Result{}, err
	}
	solver := sweep.NewPenta()
	if pl == nil {
		var err error
		if pl, err = CompileSweepPlanOverlap(env, solver, o); err != nil {
			return nil, rt.Result{}, err
		}
	}
	var out *grid.Grid
	body := spBody(env, solver, pl, steps, o, &out)
	res, err := rm.Run(func(r *rt.Rank) { body(r) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// spHaloDepth is the stencil reach of the SP pseudo-application.
const spHaloDepth = 2

// spCheck validates that every tile is thick enough for the halo depth.
func spCheck(env *dist.Env) error {
	gamma := env.M.Gamma()
	for dim := range env.Eta {
		if gamma[dim] > 1 && env.Eta[dim]/gamma[dim] < spHaloDepth {
			return fmt.Errorf("dmem: tiles along dim %d are thinner than the halo depth %d", dim, spHaloDepth)
		}
	}
	return nil
}

// spBody builds the per-rank body of the SP strict run — shared verbatim
// by the simulator and real-parallel backends, so schedule and data flow
// cannot drift between them. Only rank 0 writes *out (the gathered grid).
func spBody(env *dist.Env, solver sweep.Solver, sweepPlan *plan.SweepPlan, steps int, o plan.Overlap, out **grid.Grid) func(t xport.Transport) {
	return func(t xport.Transport) {
		u := NewField(env, t.Rank(), spHaloDepth)
		u.FillFunc(initialAt(env.Eta))
		// The fill supplies the five bands; the backward pass never reads
		// the two lowers, so they get no field.
		vecs := make([]*Field, solver.NumVecs())
		for v := spLowers; v < len(vecs); v++ {
			vecs[v] = NewField(env, t.Rank(), 0)
		}
		rhs := vecs[5]
		runner := NewSweepRunner(solver, vecs)
		runner.Plan = sweepPlan
		runner.Fill = spPanelFill()

		var haloPre []xport.Request
		for step := 0; step < steps; step++ {
			u.ExchangeHalosPiped(t, haloPre)
			haloPre = nil
			t.Compute(env.Overhead.PerTileVisit * float64(u.NumTiles()))
			strictComputeRHS(u, rhs)
			t.ComputeFlops(nas.FlopsRHS * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
			for dim := range env.Eta {
				// The bands are built inside the sweep, by the fill; the
				// charge stays here so virtual time does not move.
				t.ComputeFlops(nas.FlopsLHSBuild * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
				runner.Run(t, dim)
			}
			if o.Enabled && step+1 < steps {
				haloPre = u.PostHaloRecvs(t)
			}
			strictAdd(u, rhs)
			t.ComputeFlops(nas.FlopsAdd * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
		}
		if g := GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	}
}

// spLowers is the number of sub-diagonal bands of SP's pentadiagonal
// solve, vectors 0 and 1 of sweep.NewPenta.
const spLowers = 2

// spPanelFill supplies the five bands of SP's forward pass.
func spPanelFill() PanelFill {
	return PanelFill{Vecs: []bool{true, true, true, true, true, false}, Func: fillSPPanels}
}

// fillSPPanels writes the five pentadiagonal bands of each row from
// nas.BandRow, computed once per row and broadcast across the nb lanes.
func fillSPPanels(dim, g0, nb, n int, panels [][]float64) {
	rows := len(panels[0]) / nb
	for k := 0; k < rows; k++ {
		l1, l2, dg, u1, u2 := nas.BandRow(g0+k, dim, n)
		lo := k * nb
		for v, x := range [5]float64{l1, l2, dg, u1, u2} {
			fillLanes(panels[v][lo:lo+nb], x)
		}
	}
}

// fillLanes broadcasts x across one panel row.
func fillLanes(row []float64, x float64) {
	for i := range row {
		row[i] = x
	}
}

// initialAt evaluates nas.InitialState's formula pointwise so every rank
// initializes its own tiles without touching shared data.
func initialAt(eta []int) func(global []int) float64 {
	return func(idx []int) float64 {
		v := 1.0
		for i, x := range idx {
			v += float64((x+1)*(i+2)) / float64(eta[i]*(i+3))
		}
		return v
	}
}

func ownedElements(f *Field) int {
	n := 0
	for i := 0; i < f.NumTiles(); i++ {
		n += f.GlobalBounds(i).Size()
	}
	return n
}

// strictComputeRHS evaluates the SP stencil over every owned tile reading
// only the rank's private padded storage. Domain-boundary reads clamp
// exactly as the serial nas.ComputeRHS does.
func strictComputeRHS(u *Field, rhs *Field) {
	env := u.Env
	d := len(env.Eta)
	for i := 0; i < u.NumTiles(); i++ {
		ug := u.TileGrid(i)
		rg := rhs.TileGrid(i)
		ud := ug.Data()
		rd := rg.Data()
		uShape := ug.Shape()
		// Strides of the padded u grid.
		uStride := make([]int, d)
		s := 1
		for k := d - 1; k >= 0; k-- {
			uStride[k] = s
			s *= uShape[k]
		}
		global := make([]int, d)
		interiorU := u.InteriorRect(i)
		rhsInterior := rhs.InteriorRect(i)
		// Walk u's interior and rhs's interior in lockstep (same shape,
		// different padding).
		rhsLines := rg.AppendLines(rhsInterior, d-1, nil)
		li := 0
		ug.EachLine(interiorU, d-1, func(l grid.Line) {
			rl := rhsLines[li]
			li++
			u.localToGlobal(i, l.Base, global)
			uOff := l.Base
			rOff := rl.Base
			for k := 0; k < l.N; k++ {
				acc := 0.0
				for dim := 0; dim < d; dim++ {
					g := global[dim]
					n := env.Eta[dim]
					at := func(delta int) float64 {
						cc := g + delta
						if cc < 0 {
							cc = 0
						}
						if cc >= n {
							cc = n - 1
						}
						return ud[uOff+(cc-g)*uStride[dim]]
					}
					acc += nas.StencilTerm(at(-2), at(-1), at(0), at(1), at(2))
				}
				rd[rOff] = acc
				uOff += l.Stride
				rOff += rl.Stride
				global[d-1]++
			}
			global[d-1] -= l.N
		})
	}
}

// strictAdd folds rhs into u over every owned tile (different paddings).
func strictAdd(u *Field, rhs *Field) {
	d := len(u.Env.Eta)
	for i := 0; i < u.NumTiles(); i++ {
		ug := u.TileGrid(i)
		rg := rhs.TileGrid(i)
		ud := ug.Data()
		rd := rg.Data()
		rhsLines := rg.AppendLines(rhs.InteriorRect(i), d-1, nil)
		li := 0
		ug.EachLine(u.InteriorRect(i), d-1, func(l grid.Line) {
			rl := rhsLines[li]
			li++
			uOff, rOff := l.Base, rl.Base
			for k := 0; k < l.N; k++ {
				ud[uOff] += rd[rOff]
				uOff += l.Stride
				rOff += rl.Stride
			}
		})
	}
}
