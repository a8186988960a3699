package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// parallelP is the rank count of the measured solves; the serial baseline
// runs the same solve at p=1.
const parallelP = 2

// workload is one strict application solve at a fixed input size. The
// drivers generate their own deterministic initial fields, so a workload is
// fully described by these fields; the seed never reaches the drivers.
type workload struct {
	name    string
	app     string // "sp", "bt" or "adi"
	eta     int    // cubic extent η
	steps   int
	overlap bool
}

// workloads are the benchmark's closed-loop workloads: one caller, one
// solve at a time. Each stresses a different layer; BENCHMARK.json records
// why each was chosen.
var workloads = []workload{
	{name: "sp-64", app: "sp", eta: 64, steps: 4},
	{name: "bt-24", app: "bt", eta: 24, steps: 4},
	{name: "adi-16-overlap", app: "adi", eta: 16, steps: 200, overlap: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) dims() []int { return []int{w.eta, w.eta, w.eta} }

func (w workload) solver() sweep.Solver {
	switch w.app {
	case "sp":
		return sweep.NewPenta()
	case "bt":
		return sweep.NewBlockTridiag(nas.BTBlockSize)
	default:
		return sweep.Tridiag{}
	}
}

// haloDepth is the stencil reach of the application's solution field.
func (w workload) haloDepth() int {
	if w.app == "adi" {
		return 0
	}
	return 2
}

func (w workload) adiProblem() adi.Problem {
	return adi.Problem{Eta: w.dims(), Alpha: 0.3, Steps: w.steps}
}

func (w workload) overlapSpec() plan.Overlap {
	return plan.Overlap{Enabled: w.overlap}
}

// instance is a workload set up for one rank count: the partitioning found
// by the search, the environment, and the plan as loaded back from its
// shipped JSON form — the plan every solve executes.
type instance struct {
	w          workload
	p          int
	env        *dist.Env
	solver     sweep.Solver
	plan       *plan.SweepPlan
	candidates int // partitionings the search evaluated
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	search, mapping, compile, ship time.Duration
}

func (s setupTimes) total() time.Duration { return s.search + s.mapping + s.compile + s.ship }

// setup runs the whole set-up path for w at p ranks: partition search,
// modular mapping and environment, plan compile, and the plan's JSON ship
// and load round trip through shipDir. Each layer call is timed, and traced
// when tr is non-nil.
func setup(w workload, p int, shipDir string, tr *tracer, rep int) (*instance, setupTimes, error) {
	var st setupTimes
	root := tr.begin("setup", 0, rep, -1)
	defer tr.end(root)
	in := &instance{w: w, p: p, solver: w.solver()}
	eta := w.dims()

	id := tr.begin("partition.search", root, rep, -1)
	t0 := time.Now()
	var stats partition.SearchStats
	res, err := partition.OptimalCappedStats(p, len(eta), partition.VolumeObjective(eta), eta, &stats)
	st.search = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, st, fmt.Errorf("partition search: %w", err)
	}
	in.candidates = stats.LeavesEvaluated

	id = tr.begin("core.mapping", root, rep, -1)
	t0 = time.Now()
	m, err := core.NewGeneralized(p, res.Gamma)
	if err == nil {
		in.env, err = dist.NewEnv(m, eta, dist.DHPF())
	}
	st.mapping = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, st, fmt.Errorf("mapping: %w", err)
	}

	id = tr.begin("plan.compile", root, rep, -1)
	t0 = time.Now()
	pl, err := dmem.CompileSweepPlanOverlap(in.env, in.solver, w.overlapSpec())
	st.compile = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, st, fmt.Errorf("plan compile: %w", err)
	}

	id = tr.begin("plan.ship", root, rep, -1)
	path := filepath.Join(shipDir, fmt.Sprintf("plan-%s-p%d.json", w.name, p))
	t0 = time.Now()
	err = obs.WritePlanJSON(path, "perfbench "+w.name, pl)
	if err == nil {
		in.plan, err = obs.LoadPlan(path)
	}
	st.ship = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, st, fmt.Errorf("plan ship: %w", err)
	}
	return in, st, nil
}

// solve runs the workload's strict driver on the rt machine with the
// shipped plan.
func (in *instance) solve(m *rt.Machine) (*grid.Grid, rt.Result, error) {
	w := in.w
	switch w.app {
	case "sp":
		return dmem.RunSPReal(in.env, m, w.steps, w.overlapSpec(), in.plan)
	case "bt":
		return dmem.RunBTReal(in.env, m, w.steps, w.overlapSpec(), in.plan)
	default:
		return dmem.RunADIReal(w.adiProblem(), in.env, m, w.overlapSpec(), in.plan)
	}
}

// simulate runs the same driver on the virtual-time simulator — the
// fidelity reference and the source of the virtual makespan.
func (in *instance) simulate() (*grid.Grid, sim.Result, error) {
	w := in.w
	mach := nas.Origin2000Machine(in.p)
	switch w.app {
	case "sp":
		return dmem.RunSPOverlap(in.env, mach, w.steps, w.overlapSpec())
	case "bt":
		return dmem.RunBTOverlap(in.env, mach, w.steps, w.overlapSpec())
	default:
		return dmem.RunADIOverlap(w.adiProblem(), in.env, mach, w.overlapSpec())
	}
}

// costModel is the analytic model calibrated to the simulator's machine,
// so the predicted and simulated columns describe the same hardware.
func (in *instance) costModel() cost.Model {
	mach := nas.Origin2000Machine(in.p)
	s := in.solver
	passes := 1
	if s.BackwardCarryLen() > 0 {
		passes = 2
	}
	return cost.Calibrated(mach.Net, mach.CPU, in.env.Overhead.ComputeFactor, in.env.Overhead.PerMessage,
		cost.SweepWorkload{
			FlopsPerElement:   s.FlopsPerElement(),
			CarryBytesPerLine: 8 * float64(s.ForwardCarryLen()+s.BackwardCarryLen()),
			Passes:            passes,
		})
}

// predicted returns the modelled virtual time of the solve's sweeps per
// dimension (steps rounds of PlanSweepTime) and their total.
func (in *instance) predicted() (perDim []float64, total float64) {
	m := in.costModel()
	for dim := range in.plan.Eta {
		t := m.PlanSweepTime(in.plan, dim) * float64(in.w.steps)
		perDim = append(perDim, t)
		total += t
	}
	return perDim, total
}

// planCounts returns the plan's phase count and total carry bytes over all
// ranks, dimensions and directions.
func planCounts(pl *plan.SweepPlan) (phases, carryBytes int) {
	for _, passes := range pl.Passes {
		for _, pp := range passes {
			phases += len(pp.Phases)
			for _, ph := range pp.Phases {
				carryBytes += ph.SendBytes
			}
		}
	}
	return phases, carryBytes
}

// reference is what a correct run must reproduce: the gathered field to the
// last bit, and the exact message and byte totals.
type reference struct {
	field       *grid.Grid
	msgs, bytes int
}

// errMismatch marks a run whose output differs from the reference.
var errMismatch = errors.New("output differs from the simulator reference")

// check compares a run's output against the reference.
func (ref reference) check(g *grid.Grid, msgs, bytes int) error {
	if g == nil {
		return fmt.Errorf("%w: no gathered field", errMismatch)
	}
	if msgs != ref.msgs || bytes != ref.bytes {
		return fmt.Errorf("%w: %d messages / %d bytes, want %d / %d", errMismatch, msgs, bytes, ref.msgs, ref.bytes)
	}
	a, b := g.Data(), ref.field.Data()
	if len(a) != len(b) {
		return fmt.Errorf("%w: %d elements, want %d", errMismatch, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%w: element %d is %#x, want %#x", errMismatch, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	return nil
}
