package exp

import (
	"fmt"
	"math"
	"strings"

	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/nas"
	"genmp/internal/numutil"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// CalibrationRow is one (processor count, phase) cell of the cost-model
// audit: the analytic per-rank phase time predicted from the machine
// constants against the time the simulator actually accounted to the phase
// (mean over ranks, including waits).
type CalibrationRow struct {
	P         int
	Gamma     []int
	Phase     string
	Predicted float64 // seconds
	Measured  float64 // seconds
	RelErr    float64 // (Predicted − Measured) / Measured; 0 when both vanish
}

// calibrationPhases is the canonical row order of the audit for a d=3 run.
func calibrationPhases(d int) []string {
	phases := []string{nas.PhaseHalo, nas.PhaseRHS}
	for dim := 0; dim < d; dim++ {
		phases = append(phases, nas.PhaseSolve(dim))
	}
	return append(phases, nas.PhaseAdd, nas.PhaseReduce)
}

// spWorkload builds the Calibrated sweep workload of SP: the pentadiagonal
// per-point flops (solve + LHS build, both charged inside the solve phase)
// and the penta solver's carry traffic.
func spWorkload() cost.SweepWorkload {
	s := sweep.NewPenta()
	return cost.SweepWorkload{
		FlopsPerElement:   nas.FlopsSolve + nas.FlopsLHSBuild,
		CarryBytesPerLine: 8 * float64(s.ForwardCarryLen()+s.BackwardCarryLen()),
		Passes:            2,
	}
}

// Calibrate audits the analytic cost model against the simulator: for every
// Table 1 processor count it runs the SP pseudo-application (hand-coded
// overhead model, optimal generalized partitioning, model-only) with
// per-phase accounting on, predicts each phase's per-rank time from the
// machine constants — the solve phases through cost.Calibrated/SweepTime,
// exactly the model the partitioning search optimizes — and reports the
// relative error. The prediction assumes no partial replication, so the
// audit fixes the dist.HandCoded overhead model.
func Calibrate(eta []int, steps int) ([]CalibrationRow, error) {
	return CalibrateOn("", eta, steps)
}

// CalibrateOn is Calibrate on the named interconnect topology: the
// prediction side switches to cost.CalibratedFabric (mean hop latency,
// shared-medium K₃) so the audit stays apples-to-apples with the simulated
// fabric. The empty topology reproduces Calibrate exactly.
func CalibrateOn(topology string, eta []int, steps int) ([]CalibrationRow, error) {
	var rows []CalibrationRow
	d := len(eta)
	for _, p := range Table1Procs {
		obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
		res, err := partition.OptimalCapped(p, d, obj, eta)
		if err != nil {
			return nil, fmt.Errorf("exp: Calibrate: p=%d: %w", p, err)
		}
		m, err := core.NewGeneralized(p, res.Gamma)
		if err != nil {
			return nil, fmt.Errorf("exp: Calibrate: p=%d: %w", p, err)
		}
		env, err := dist.NewEnv(m, eta, dist.HandCoded())
		if err != nil {
			return nil, fmt.Errorf("exp: Calibrate: p=%d: %w", p, err)
		}
		base := nas.Origin2000Machine(p)
		cpu := base.CPU
		cpu.WorkingSetBytes = nas.WorkingSetBytes(eta, p)
		mach := sim.NewMachine(p, base.Net, cpu)
		fab, err := sim.NewFabric(topology, mach.Net, p)
		if err != nil {
			return nil, err
		}
		mach.Fabric = fab
		// One compiled plan feeds both sides of the audit: the executor runs
		// it, and the analytic side folds over it — predicted and measured
		// describe the very same schedule instance, not two reconstructions.
		pl, err := nas.CompilePlanOverlap(env, plan.Overlap{})
		if err != nil {
			return nil, fmt.Errorf("exp: Calibrate: p=%d: %w", p, err)
		}
		simRes, err := nas.RunPlanned(env, mach, steps, nil, pl)
		if err != nil {
			return nil, fmt.Errorf("exp: Calibrate: p=%d: %w", p, err)
		}
		prof := obs.NewProfile(simRes, nil)
		pred := predictPhases(env, mach, steps, pl)
		for _, phase := range calibrationPhases(d) {
			row := CalibrationRow{
				P:         p,
				Gamma:     res.Gamma,
				Phase:     phase,
				Predicted: pred[phase],
				Measured:  prof.Phase(phase).Mean(),
			}
			switch {
			case row.Measured != 0:
				row.RelErr = (row.Predicted - row.Measured) / row.Measured
			case row.Predicted != 0:
				row.RelErr = math.Inf(1)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// predictPhases returns the analytic per-rank time of every SP phase for
// one run (steps time steps plus the final reduction), from the machine and
// overhead constants plus the compiled sweep plan the executor ran.
// Assumes Overhead.ReplicationDepth == 0.
func predictPhases(env *dist.Env, mach *sim.Machine, steps int, pl *plan.SweepPlan) map[string]float64 {
	eta := env.Eta
	gamma := env.M.Gamma()
	p := mach.P
	n := float64(numutil.Prod(eta...))
	perRank := n / float64(p)
	eff := mach.CPU.EffectiveFlopsPerSec()
	cf := env.Overhead.ComputeFactor
	tiles := float64(partition.TilesPerProcessor(p, gamma))
	net := mach.Net
	fab := mach.Fabric
	if fab == nil {
		fab = sim.DefaultFabric(net, p)
	}
	// Per matched send/recv pair on one rank: pack + unpack, both network
	// overheads, and the head latency the receiver waits out when both sides
	// arrive together (the balanced steady state). On the uniform fabrics
	// MeanHeadLatency is exactly the wire latency, keeping the default audit
	// bit-identical to the pre-Fabric one.
	perPair := 2*env.Overhead.PerMessage + net.SendOverhead + net.RecvOverhead + fab.MeanHeadLatency()

	out := map[string]float64{
		nas.PhaseRHS: float64(steps) * (tiles*env.Overhead.PerTileVisit + nas.FlopsRHS*perRank*cf/eff),
		nas.PhaseAdd: float64(steps) * (tiles*env.Overhead.PerTileVisit + nas.FlopsAdd*perRank*cf/eff),
	}

	// Halo: per step, one SendRecv pair per cut dimension per direction;
	// the received volume is the rank-mean of the halo geometry.
	halo := 0.0
	if p > 1 {
		pairs := 0
		for _, g := range gamma {
			if g > 1 {
				pairs += 2
			}
		}
		bytes := 0.0
		for q := 0; q < p; q++ {
			bytes += float64(env.HaloBytes(q, 2-env.Overhead.ReplicationDepth, 1))
		}
		bytes /= float64(p)
		halo = float64(pairs)*perPair + bytes/net.Bandwidth
	}
	out[nas.PhaseHalo] = float64(steps) * halo

	// Solve phases: the audited model itself, folded over the very plan the
	// executor ran. PlanSweepTime covers the fused LHS-build + solve
	// arithmetic (K₁·η/p) and the per-boundary communication steps; the
	// per-tile visit charge (LHS build + two sweep passes) is a runtime
	// overhead outside the paper's model, added on top.
	model := cost.CalibratedFabric(fab, net, mach.CPU, cf, env.Overhead.PerMessage, spWorkload())
	for dim := range eta {
		t := model.PlanSweepTime(pl, dim) + 3*tiles*env.Overhead.PerTileVisit
		out[nas.PhaseSolve(dim)] = float64(steps) * t
	}

	// Final residual reduction: ⌈log₂p⌉ exchange rounds of one float64.
	// Recursive-doubling partners differ by one bit, so even on the
	// hypercube each round's transfer is one hop; on the uniform fabrics
	// Transit is bit-identical to the legacy net.Transit(8).
	reduce := 0.0
	if p > 1 {
		rounds := 0
		for k := 1; k < p; k *= 2 {
			rounds++
		}
		reduce = float64(rounds) * (net.SendOverhead + net.RecvOverhead + fab.Transit(0, 1, 8))
	}
	out[nas.PhaseReduce] = reduce
	return out
}

// FormatCalibration renders the audit as a table grouped by processor
// count, flagging rows whose relative error exceeds 25%.
func FormatCalibration(rows []CalibrationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s  %12s  %-8s  %12s  %12s  %8s\n",
		"# CPUs", "partitioning", "phase", "predicted", "measured", "err")
	lastP := -1
	for _, r := range rows {
		pStr, gStr := "", ""
		if r.P != lastP {
			pStr = fmt.Sprintf("%d", r.P)
			gStr = partition.Describe(r.Gamma)
			lastP = r.P
		}
		flag := ""
		if math.Abs(r.RelErr) > 0.25 {
			flag = "  <-"
		}
		fmt.Fprintf(&sb, "%6s  %12s  %-8s  %12s  %12s  %7.1f%%%s\n",
			pStr, gStr, r.Phase, fmtCalSec(r.Predicted), fmtCalSec(r.Measured), 100*r.RelErr, flag)
	}
	return sb.String()
}

// fmtCalSec renders seconds compactly for the calibration table.
func fmtCalSec(s float64) string {
	switch {
	case s == 0:
		return "0"
	case math.Abs(s) < 1e-3:
		return fmt.Sprintf("%.2fµs", s*1e6)
	case math.Abs(s) < 1:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
