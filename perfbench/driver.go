package main

import (
	"fmt"
	"time"

	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// waitClock is the benchmark's transport wrapper around an *rt.Rank: it
// forwards every call and adds up the wall time spent blocked in Recv,
// request Waits, WaitAll and Barrier.
type waitClock struct {
	xport.Transport
	wait time.Duration
}

var _ xport.Transport = (*waitClock)(nil)

func (w *waitClock) Recv(src, tag int) xport.Msg {
	t0 := time.Now()
	m := w.Transport.Recv(src, tag)
	w.wait += time.Since(t0)
	return m
}

func (w *waitClock) SendRecv(dst, sendTag int, m xport.Msg, src, recvTag int) xport.Msg {
	w.Transport.Send(dst, sendTag, m)
	return w.Recv(src, recvTag)
}

func (w *waitClock) Irecv(src, tag int) xport.Request {
	return &timedRequest{Request: w.Transport.Irecv(src, tag), clock: w}
}

func (w *waitClock) WaitAll(reqs ...xport.Request) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

func (w *waitClock) Barrier() {
	t0 := time.Now()
	w.Transport.Barrier()
	w.wait += time.Since(t0)
}

// timedRequest times the Wait of a receive request.
type timedRequest struct {
	xport.Request
	clock *waitClock
}

func (q *timedRequest) Wait() xport.Msg {
	t0 := time.Now()
	m := q.Request.Wait()
	q.clock.wait += time.Since(t0)
	return m
}

// probeTimes is one rank's wall time in each timed layer call of one probe
// solve.
type probeTimes struct {
	sweep        [3]time.Duration
	wait         time.Duration // blocked time inside the sweeps
	halo, gather time.Duration
}

var (
	phaseSolve = [3]string{"solve0", "solve1", "solve2"}
	spanSweep  = [3]string{"dmem.sweep_dim0", "dmem.sweep_dim1", "dmem.sweep_dim2"}
)

// probe is the layer-by-layer replica of a workload's driver. The drivers
// run their per-rank bodies privately, so the benchmark rebuilds the same
// solve from the public dmem calls — fields of the driver's shapes, a
// SweepRunner on the shipped plan, the stencil halo exchange, one sweep per
// dimension per step, and the final gather — and times each call. The
// driver's private right-hand-side and coefficient work is replaced by
// restoring fixed diagonally dominant coefficients before every sweep; it
// is outside every timed call, and its share of the real driver is what
// dmem.driver_other_s reports.
type probe struct {
	in *instance
	// ref is the same probe body run on the simulator.
	ref reference
	// simPhase is the simulator's virtual time per phase label, mean over
	// ranks.
	simPhase map[string]float64
}

// body returns the per-rank probe body. wc is non-nil when t is a
// waitClock; tr may be nil (untraced).
func (pb *probe) body(tr *tracer, parent, rep int, times []probeTimes, out **grid.Grid) func(t xport.Transport, wc *waitClock) {
	in := pb.in
	w := in.w
	return func(t xport.Transport, wc *waitClock) {
		q := t.Rank()
		rankSpan := tr.begin("dmem.probe_rank", parent, rep, q)
		defer tr.end(rankSpan)
		u := dmem.NewField(in.env, q, w.haloDepth())
		u.FillFunc(func(g []int) float64 { return 1 + 0.01*float64(g[0]+2*g[1]+3*g[2]) })
		vecs := make([]*dmem.Field, in.solver.NumVecs())
		pristine := make([][][]float64, len(vecs))
		for v := range vecs {
			vecs[v] = dmem.NewField(in.env, q, 0)
			vecs[v].FillFunc(fieldCoef(in.solver, v, in.env.Eta))
			for i := 0; i < vecs[v].NumTiles(); i++ {
				pristine[v] = append(pristine[v], append([]float64(nil), vecs[v].TileGrid(i).Data()...))
			}
		}
		runner := dmem.NewSweepRunner(in.solver, vecs)
		runner.Plan = in.plan

		var pt probeTimes
		for step := 0; step < w.steps; step++ {
			if w.haloDepth() > 0 {
				t.BeginPhase("halo")
				id := tr.begin("dmem.halo", rankSpan, rep, q)
				t0 := time.Now()
				u.ExchangeHalos(t)
				pt.halo += time.Since(t0)
				tr.end(id)
			}
			for dim := range in.env.Eta {
				for v, f := range vecs {
					for i := 0; i < f.NumTiles(); i++ {
						copy(f.TileGrid(i).Data(), pristine[v][i])
					}
				}
				t.BeginPhase(phaseSolve[dim])
				var w0 time.Duration
				if wc != nil {
					w0 = wc.wait
				}
				id := tr.begin(spanSweep[dim], rankSpan, rep, q)
				t0 := time.Now()
				runner.Run(t, dim)
				pt.sweep[dim] += time.Since(t0)
				tr.end(id)
				if wc != nil {
					pt.wait += wc.wait - w0
				}
			}
		}
		t.BeginPhase("gather")
		id := tr.begin("dmem.gather_root", rankSpan, rep, q)
		t0 := time.Now()
		g := dmem.GatherToRoot(t, vecs[len(vecs)-1], xport.AlgAuto)
		pt.gather = time.Since(t0)
		tr.end(id)
		times[q] = pt
		if g != nil {
			*out = g
		}
	}
}

// newProbe runs the probe body once on the simulator for its reference
// field, traffic and per-phase virtual times.
func newProbe(in *instance) (*probe, error) {
	pb := &probe{in: in, simPhase: map[string]float64{}}
	times := make([]probeTimes, in.p)
	var out *grid.Grid
	body := pb.body(nil, 0, 0, times, &out)
	res, err := nas.Origin2000Machine(in.p).Run(func(r *sim.Rank) { body(r, nil) })
	if err != nil {
		return nil, fmt.Errorf("probe on sim: %w", err)
	}
	if out == nil {
		return nil, fmt.Errorf("probe on sim: no gathered field")
	}
	pb.ref = reference{field: out, msgs: res.TotalMessages(), bytes: res.TotalBytes()}
	for _, st := range res.Ranks {
		for label, ps := range st.Phases {
			pb.simPhase[label] += ps.Total() / float64(in.p)
		}
	}
	return pb, nil
}

// run executes one probe solve on m and checks it against the simulator.
// Traced solves wrap each rank's transport in a waitClock and record spans;
// untraced ones run on the bare *rt.Rank with tr nil.
func (pb *probe) run(m *rt.Machine, tr *tracer, rep int) (time.Duration, []probeTimes, error) {
	times := make([]probeTimes, pb.in.p)
	var out *grid.Grid
	parent := tr.begin("dmem.probe_solve", 0, rep, -1)
	body := pb.body(tr, parent, rep, times, &out)
	t0 := time.Now()
	res, err := m.Run(func(r *rt.Rank) {
		if tr != nil {
			wc := &waitClock{Transport: r}
			body(wc, wc)
			return
		}
		body(r, nil)
	})
	wall := time.Since(t0)
	tr.end(parent)
	if err == nil {
		err = pb.ref.check(out, res.TotalMessages(), res.TotalBytes())
	}
	return wall, times, err
}

// fieldCoef returns a fixed, diagonally dominant value of solver vector v at
// a global index of an array of extents eta. Entries that couple to a
// neighbour r cells away are zero within r cells of any domain face, so
// every line along every dimension satisfies the solvers' end conditions.
func fieldCoef(s sweep.Solver, v int, eta []int) func(g []int) float64 {
	reach, kind := vecRole(s, v)
	return func(g []int) float64 {
		h := hash01(uint64(v), g)
		for d, x := range g {
			if (reach < 0 && x < -reach) || (reach > 0 && x >= eta[d]-reach) {
				return 0
			}
		}
		return roleValue(kind, h)
	}
}

// Vector roles of the solvers' layouts.
const (
	roleOff  = iota // off-diagonal coefficient
	roleDiag        // diagonal coefficient
	roleRHS         // right-hand side
)

// vecRole returns how far vector v of solver s couples along the line
// (negative: backwards) and its role.
func vecRole(s sweep.Solver, v int) (reach, kind int) {
	switch s := s.(type) {
	case sweep.Banded:
		switch {
		case v < s.KL:
			return -(v + 1), roleOff
		case v == s.KL:
			return 0, roleDiag
		case v <= s.KL+s.KU:
			return v - s.KL, roleOff
		}
		return 0, roleRHS
	case sweep.BlockTridiag:
		bb := s.B * s.B
		switch {
		case v < bb:
			return -1, roleOff
		case v < 2*bb:
			if e := v - bb; e/s.B == e%s.B {
				return 0, roleDiag
			}
			return 0, roleOff
		case v < 3*bb:
			return 1, roleOff
		}
		return 0, roleRHS
	default: // Tridiag: lower, diag, upper, rhs
		return []int{-1, 0, 1, 0}[v], []int{roleOff, roleDiag, roleOff, roleRHS}[v]
	}
}

// roleValue maps h ∈ [0,1) to a coefficient: off-diagonals lie in
// [−0.1, 0.1] and diagonals in [3, 4), which dominates the at most 14
// off-diagonal entries of a row.
func roleValue(kind int, h float64) float64 {
	switch kind {
	case roleDiag:
		return 3 + h
	case roleRHS:
		return 1 + h
	}
	return 0.2 * (h - 0.5)
}

// hash01 maps (v, g) to a fixed pseudo-random value in [0, 1).
func hash01(v uint64, g []int) float64 {
	x := v*0x9e3779b97f4a7c15 + 1
	for _, c := range g {
		x ^= uint64(c) + 0x9e3779b97f4a7c15 + x<<6 + x>>2
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
