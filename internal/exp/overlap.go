package exp

import (
	"fmt"
	"strings"

	"genmp/internal/core"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/causal"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sim"
)

// OverlapResult is the comm/compute-overlap comparison (ROADMAP item 2,
// DESIGN.md §14): SP with the boundary-first overlap schedule off and on,
// next to the causal engine's what-if prediction over the off trace — the
// same `critpath -whatif "overlap:phase=solve*"` replay, run in-process.
type OverlapResult struct {
	P     int
	Eta   []int
	Steps int
	// Frac is the boundary fraction of the overlap annotation (0 picks
	// plan.DefaultOverlapFrac).
	Frac float64
	// Off/On are the measured makespans; Predicted is the causal replay of
	// the off trace with every solve-phase carry posted early — the model's
	// bound on what overlap can recover.
	Off, On, Predicted float64
	// SolveWaitOff/On sum the solve phases' exposed wait over all ranks:
	// the bucket the optimization attacks (profdiff shows the same
	// shrinkage between the two runs' profiles).
	SolveWaitOff, SolveWaitOn float64
	// Gamma is the partitioning used.
	Gamma string
}

// MeasuredRecovery returns how much makespan the overlap schedule actually
// recovered; PredictedRecovery what the causal what-if replay predicted.
func (r OverlapResult) MeasuredRecovery() float64  { return r.Off - r.On }
func (r OverlapResult) PredictedRecovery() float64 { return r.Off - r.Predicted }

// WithinPredictedBound reports whether the measured improvement stays
// within the causal prediction plus a small tolerance. The what-if replay
// advances carries without charging the second per-boundary message
// start-up the real schedule pays, so it bounds the realizable recovery
// from above.
func (r OverlapResult) WithinPredictedBound() bool {
	tol := 1e-9 * r.Off
	return r.MeasuredRecovery() <= r.PredictedRecovery()+tol
}

// OverlapComparison runs the SP overlap comparison on the default crossbar.
func OverlapComparison(p int, eta []int, steps int, frac float64) (OverlapResult, error) {
	return OverlapComparisonOn("", p, eta, steps, frac)
}

// OverlapComparisonOn runs the comparison on the named topology:
// model-only SP with the strict schedule (tracing), the causal what-if
// replay posting every solve-phase carry early, then the same run with the
// overlap-annotated plan — same partitioning, fresh machine per run so
// fabric state never leaks between them.
func OverlapComparisonOn(topology string, p int, eta []int, steps int, frac float64) (OverlapResult, error) {
	d := len(eta)
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, d, obj)
	if err != nil {
		return OverlapResult{}, err
	}
	env, err := distEnv(m, eta)
	if err != nil {
		return OverlapResult{}, err
	}
	o := plan.Overlap{Enabled: true, Frac: frac}
	out := OverlapResult{P: p, Eta: eta, Steps: steps, Frac: o.Fraction(), Gamma: partition.Describe(m.Gamma())}

	// Overlap off, traced: the baseline and the causal engine's input.
	machOff, err := nas.Origin2000MachineOn(topology, p)
	if err != nil {
		return OverlapResult{}, err
	}
	machOff.Trace = &sim.Trace{}
	plOff, err := nas.CompilePlanOverlap(env, plan.Overlap{})
	if err != nil {
		return OverlapResult{}, err
	}
	resOff, err := nas.RunPlanned(env, machOff, steps, nil, plOff)
	if err != nil {
		return OverlapResult{}, err
	}
	out.Off = resOff.Makespan
	out.SolveWaitOff = solveWait(resOff)

	// The what-if prediction over the off trace: every solve-phase carry
	// departs once the boundary fraction of the preceding compute finishes.
	dag, err := causal.Build(machOff.Trace, p)
	if err != nil {
		return OverlapResult{}, err
	}
	perts, err := causal.ParsePerturbations(fmt.Sprintf("overlap:phase=solve*,frac=%g", out.Frac))
	if err != nil {
		return OverlapResult{}, err
	}
	sched, err := dag.Replay(perts...)
	if err != nil {
		return OverlapResult{}, err
	}
	out.Predicted = sched.Makespan

	// Overlap on: identical run over the overlap-annotated plan.
	machOn, err := nas.Origin2000MachineOn(topology, p)
	if err != nil {
		return OverlapResult{}, err
	}
	plOn, err := nas.CompilePlanOverlap(env, o)
	if err != nil {
		return OverlapResult{}, err
	}
	resOn, err := nas.RunPlanned(env, machOn, steps, nil, plOn)
	if err != nil {
		return OverlapResult{}, err
	}
	out.On = resOn.Makespan
	out.SolveWaitOn = solveWait(resOn)
	return out, nil
}

// solveWait sums the exposed wait of every solve phase over all ranks.
func solveWait(res sim.Result) float64 {
	w := 0.0
	for _, s := range res.Ranks {
		for label, ps := range s.Phases {
			if strings.HasPrefix(label, "solve") {
				w += ps.WaitTime
			}
		}
	}
	return w
}

// FormatOverlapComparison renders the comparison with the measured recovery
// next to the causal prediction.
func FormatOverlapComparison(r OverlapResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SP overlap comparison: p=%d eta=%v steps=%d gamma=%s frac=%g\n",
		r.P, r.Eta, r.Steps, r.Gamma, r.Frac)
	fmt.Fprintf(&sb, "  overlap off   %12.6fs   solve wait %10.6fs\n", r.Off, r.SolveWaitOff)
	fmt.Fprintf(&sb, "  overlap on    %12.6fs   solve wait %10.6fs\n", r.On, r.SolveWaitOn)
	fmt.Fprintf(&sb, "  whatif bound  %12.6fs   (overlap:phase=solve*,frac=%g over the off trace)\n", r.Predicted, r.Frac)
	fmt.Fprintf(&sb, "  recovered %.6fs of a predicted %.6fs", r.MeasuredRecovery(), r.PredictedRecovery())
	if r.WithinPredictedBound() {
		sb.WriteString(" — within the causal bound\n")
	} else {
		sb.WriteString(" — EXCEEDS the causal bound\n")
	}
	return sb.String()
}

// OverlapBenchRecords runs the overlap comparison and converts it to BENCH
// records (suite "sp-overlap", rows overlap-off / overlap-on; non-default
// topologies get suite "sp-overlap@<t>") for the committed bench trajectory
// and the CI perf gate.
func OverlapBenchRecords(topology string, p int, eta []int, steps int, frac float64) ([]obs.BenchRecord, error) {
	r, err := OverlapComparisonOn(topology, p, eta, steps, frac)
	if err != nil {
		return nil, err
	}
	return OverlapRecords(topology, r), nil
}

// OverlapRecords converts an already-run comparison into its bench records,
// so callers that also print the comparison don't run it twice.
func OverlapRecords(topology string, r OverlapResult) []obs.BenchRecord {
	suite := "sp-overlap"
	if topology != "" && topology != "default" {
		suite += "@" + topology
	}
	return []obs.BenchRecord{
		{Suite: suite, Name: "overlap-off", P: r.P, Eta: r.Eta, Steps: r.Steps, Gamma: r.Gamma, Makespan: r.Off},
		{Suite: suite, Name: "overlap-on", P: r.P, Eta: r.Eta, Steps: r.Steps, Gamma: r.Gamma, Makespan: r.On},
	}
}
