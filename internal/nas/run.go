package nas

import (
	"fmt"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// spSolver is the pentadiagonal solver with the real SP's per-point flop
// weights: the data path solves one scalar component; the time model
// charges for the benchmark's five solution components and auxiliary
// arithmetic.
type spSolver struct{ sweep.Banded }

func newSPSolver() spSolver { return spSolver{sweep.NewPenta()} }

func (spSolver) ForwardFlopsPerElement() float64  { return FlopsSolve * 0.7 }
func (spSolver) BackwardFlopsPerElement() float64 { return FlopsSolve * 0.3 }
func (s spSolver) FlopsPerElement() float64 {
	return s.ForwardFlopsPerElement() + s.BackwardFlopsPerElement()
}

// Phase labels stamped on the simulator's per-phase statistics (see
// sim.Rank.BeginPhase); the calibration audit of internal/exp keys its
// predicted-vs-measured comparison on these.
const (
	PhaseHalo   = "halo"
	PhaseRHS    = "rhs"
	PhaseAdd    = "add"
	PhaseReduce = "reduce"
)

// PhaseSolve returns the label of the line-sweep phase along dim
// (LHS build + forward/backward passes).
func PhaseSolve(dim int) string { return fmt.Sprintf("solve%d", dim) }

// CompilePlanOverlap compiles the SweepPlan of the SP application over env:
// the schedule its solve phases execute, the instance the cost model folds
// over (cost.PlanSweepTime) and obs dumps. Pass it to RunPlanned so
// prediction and measurement consume the very same plan. The zero Overlap
// yields the strict schedule; an enabled one adds per-phase split points
// and interior-carry tags. RunPlanned (and every other consumer of the
// plan) switches on the annotation itself — overlap is a property of the
// compiled plan, not of any executor.
func CompilePlanOverlap(env *dist.Env, o plan.Overlap) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{M: env.M, Eta: env.Eta, Solver: newSPSolver(), Overlap: o})
}

// Run advances the SP pseudo-application for the given number of steps on a
// multipartitioned domain. In data mode u is advanced in place and matches
// SerialSolve; in model-only mode (u == nil) only virtual time and traffic
// are produced.
func Run(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid) (sim.Result, error) {
	return RunPlanned(env, mach, steps, u, nil)
}

// RunPlanned is Run executing a pre-compiled SweepPlan (from CompilePlanOverlap
// over the same env); pl == nil compiles one internally.
func RunPlanned(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid, pl *plan.SweepPlan) (sim.Result, error) {
	modelOnly := u == nil
	var vecs []*grid.Grid // l1, l2, diag, u1, u2, rhs
	var rhs *grid.Grid
	if !modelOnly {
		vecs = make([]*grid.Grid, 6)
		for i := range vecs {
			vecs[i] = grid.New(env.Eta...)
		}
		rhs = vecs[5]
	}
	ms, err := dist.NewMultiSweep(env, newSPSolver(), vecs)
	if err != nil {
		return sim.Result{}, err
	}
	ms.Plan = pl
	d := len(env.Eta)
	// The dissipation stencil reaches ±2, needing depth-2 halos of u;
	// partial replication of computation into the shadow region (a dHPF
	// optimization) recomputes the nearest shell locally and halves the
	// exchanged depth. The replicated flops are charged in ComputeOnTiles.
	haloDepth := 2 - env.Overhead.ReplicationDepth
	if haloDepth < 1 {
		haloDepth = 1
	}
	// Under the overlap schedule each step preposts the next step's halo
	// receives before the add phase (cross-timestep halo pipelining,
	// DESIGN.md §14) — timing-neutral in virtual time, but the discipline a
	// real MPI runtime needs to overlap the step tail with halo traffic.
	pipeline := pl != nil && pl.Overlap.Enabled
	return mach.Run(func(r *sim.Rank) {
		var haloPre []xport.Request
		for step := 0; step < steps; step++ {
			r.BeginPhase(PhaseHalo)
			env.ExchangeHalosPiped(r, haloDepth, 1, haloPre)
			haloPre = nil
			r.BeginPhase(PhaseRHS)
			env.ComputeOnTiles(r, FlopsRHS, tileOp(modelOnly, func(rect grid.Rect) {
				ComputeRHS(u, rhs, rect)
			}))
			for dim := 0; dim < d; dim++ {
				dim := dim
				r.BeginPhase(PhaseSolve(dim))
				env.ComputeOnTiles(r, FlopsLHSBuild, tileOp(modelOnly, func(rect grid.Rect) {
					BuildLHS(dim, rect, vecs[0], vecs[1], vecs[2], vecs[3], vecs[4])
				}))
				ms.Run(r, dim)
			}
			r.BeginPhase(PhaseAdd)
			if pipeline && step+1 < steps {
				haloPre = env.PostHaloRecvs(r, haloDepth, 1)
			}
			env.ComputeOnTiles(r, FlopsAdd, tileOp(modelOnly, func(rect grid.Rect) {
				Add(u, rhs, rect)
			}))
		}
		// Like the real benchmark's verification phase: a global residual
		// reduction at the end of the run.
		r.BeginPhase(PhaseReduce)
		local := 0.0
		if !modelOnly {
			env.EachOwnedTile(r.ID, func(lo, hi []int) {
				local += partialSumSquares(rhs, grid.RectOf(lo, hi))
			})
		}
		r.AllReduce([]float64{local}, func(a, b float64) float64 { return a + b })
	})
}

// partialSumSquares accumulates Σ v² over rect of g.
func partialSumSquares(g *grid.Grid, rect grid.Rect) float64 {
	d := g.Dims()
	data := g.Data()
	s := 0.0
	g.EachLine(rect, d-1, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			v := data[off]
			s += v * v
			off += l.Stride
		}
	})
	return s
}

func tileOp(modelOnly bool, f func(rect grid.Rect)) func(lo, hi []int) {
	if modelOnly {
		return nil
	}
	return func(lo, hi []int) { f(grid.RectOf(lo, hi)) }
}

// SerialTime returns the virtual time of the original sequential program
// for the given extents and steps on the machine's CPU: the baseline for
// Table 1 speedups.
func SerialTime(mach *sim.Machine, eta []int, steps int) (float64, error) {
	m, err := core.NewGeneralized(1, ones(len(eta)))
	if err != nil {
		return 0, err
	}
	env, err := dist.NewEnv(m, eta, dist.Original())
	if err != nil {
		return 0, err
	}
	cpu := mach.CPU
	cpu.WorkingSetBytes = WorkingSetBytes(eta, 1)
	serialMach := sim.NewMachine(1, mach.Net, cpu)
	res, err := Run(env, serialMach, steps, nil)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

func ones(d int) []int {
	g := make([]int, d)
	for i := range g {
		g[i] = 1
	}
	return g
}

// Variant identifies the two code versions compared in Table 1.
type Variant int

const (
	// HandCodedDiagonal is the NASA hand-written MPI code: diagonal
	// multipartitioning, runnable only on perfect squares.
	HandCodedDiagonal Variant = iota
	// DHPFGeneralized is the dHPF-compiled code: generalized
	// multipartitioning, any processor count.
	DHPFGeneralized
)

// Speedup runs the SP model for one (variant, p) cell of Table 1 and
// returns the speedup relative to serialTime. For HandCodedDiagonal on a
// non-square p it returns an error (the hand-coded version cannot run
// there, matching the blank cells of the table).
func Speedup(variant Variant, p int, mach *sim.Machine, eta []int, steps int, serialTime float64) (float64, error) {
	var m *core.Multipartitioning
	var ov dist.OverheadModel
	var err error
	switch variant {
	case HandCodedDiagonal:
		m, err = core.NewDiagonal(p, len(eta))
		ov = dist.HandCoded()
	case DHPFGeneralized:
		obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
		var res partition.Result
		res, err = partition.OptimalCapped(p, len(eta), obj, eta)
		if err == nil {
			m, err = core.NewGeneralized(p, res.Gamma)
		}
		ov = dist.DHPF()
	default:
		return 0, fmt.Errorf("nas: unknown variant %d", variant)
	}
	if err != nil {
		return 0, err
	}
	env, err := dist.NewEnv(m, eta, ov)
	if err != nil {
		return 0, err
	}
	cpu := mach.CPU
	cpu.WorkingSetBytes = WorkingSetBytes(eta, p)
	pm := sim.NewMachine(p, mach.Net, cpu)
	pm.Coll = mach.Coll
	if mach.Fabric != nil {
		// Rebuild rather than share: fabrics carry per-p state (hop-count
		// means, contention occupancy) and must not span machines.
		fab, err := sim.NewFabric(mach.Fabric.Name(), mach.Net, p)
		if err != nil {
			return 0, err
		}
		pm.Fabric = fab
	}
	res, err := Run(env, pm, steps, nil)
	if err != nil {
		return 0, err
	}
	return serialTime / res.Makespan, nil
}

// spGridCount is the number of resident full-size arrays in the SP state
// (u, rhs and the five pentadiagonal bands).
const spGridCount = 7

// WorkingSetBytes returns the per-rank resident data volume of the SP
// state for the cache model.
func WorkingSetBytes(eta []int, p int) float64 {
	n := 1
	for _, e := range eta {
		n *= e
	}
	return float64(n*8*spGridCount) / float64(p)
}

// Origin2000Machine returns the virtual machine calibrated for the Table 1
// reproduction: 250 MHz R10000-class CPUs (~180 Mflop/s sustained on SP)
// and an Origin-class interconnect.
func Origin2000Machine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{
			Latency:      12e-6,
			Bandwidth:    140e6,
			SendOverhead: 4e-6,
			RecvOverhead: 4e-6,
		},
		sim.CPU{FlopsPerSec: 180e6, CacheBoost: 1.25, L2Bytes: 4 << 20})
}

// Origin2000MachineOn returns the Table 1 machine with its interconnect
// replaced by the named topology ("" or "default" keeps the crossbar-like
// Origin model; see sim.FabricNames).
func Origin2000MachineOn(topology string, p int) (*sim.Machine, error) {
	mach := Origin2000Machine(p)
	fab, err := sim.NewFabric(topology, mach.Net, p)
	if err != nil {
		return nil, err
	}
	mach.Fabric = fab
	return mach, nil
}
