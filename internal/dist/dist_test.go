package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

const tol = 1e-9

func testMachine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6},
		sim.CPU{FlopsPerSec: 250e6})
}

// makeBandedGrids builds diagonally dominant random banded systems in the
// sweep package's vec layout over an eta-shaped domain, with band entries
// that would reach outside a line along dim zeroed.
func makeBandedGrids(rng *rand.Rand, eta []int, kl, ku, dim int) []*grid.Grid {
	gs := make([]*grid.Grid, kl+ku+2)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	n := eta[dim]
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
	for t := 1; t <= ku; t++ {
		t := t
		gs[kl+t].FillFunc(func(idx []int) float64 {
			if idx[dim] >= n-t {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl+ku+1].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 })
	return gs
}

// makeRecurrenceGrids builds [a, x] grids for the first-order recurrence.
func makeRecurrenceGrids(rng *rand.Rand, eta []int) []*grid.Grid {
	a := grid.New(eta...)
	x := grid.New(eta...)
	a.FillFunc(func([]int) float64 { return rng.Float64()*1.6 - 0.8 })
	x.FillFunc(func([]int) float64 { return rng.Float64()*4 - 2 })
	return []*grid.Grid{a, x}
}

// serialSolve runs the solver over every full line along dim on clones and
// returns them.
func serialSolve(solver sweep.Solver, gs []*grid.Grid, dim int) []*grid.Grid {
	clones := make([]*grid.Grid, len(gs))
	for i, g := range gs {
		clones[i] = g.Clone()
	}
	n := clones[0].Shape()[dim]
	chunk := make([][]float64, len(clones))
	for v := range chunk {
		chunk[v] = make([]float64, n)
	}
	clones[0].EachLine(clones[0].Bounds(), dim, func(l grid.Line) {
		for v, g := range clones {
			g.Gather(l, chunk[v])
		}
		sweep.ChunkedSolve(solver, chunk, nil)
		for v, g := range clones {
			g.Scatter(l, chunk[v])
		}
	})
	return clones
}

// cloneAll deep-copies a grid list.
func cloneAll(gs []*grid.Grid) []*grid.Grid {
	out := make([]*grid.Grid, len(gs))
	for i, g := range gs {
		out[i] = g.Clone()
	}
	return out
}

// runMultiSweep solves along each of dims with a MultiSweep, checks the
// fields against the serial solve and returns the messages sent over all
// dims.
func runMultiSweep(t *testing.T, p int, gamma, eta []int, solver sweep.Solver, aggregate bool, ov plan.Overlap, dims []int) int {
	t.Helper()
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatalf("p=%d γ=%v: %v", p, gamma, err)
	}
	env, err := NewEnv(m, eta, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(p)))
	msgs := 0
	for _, dim := range dims {
		var gs []*grid.Grid
		switch sv := solver.(type) {
		case sweep.Recurrence:
			gs = makeRecurrenceGrids(rng, eta)
		case sweep.Tridiag:
			gs = makeBandedGrids(rng, eta, 1, 1, dim)
		case sweep.Banded:
			gs = makeBandedGrids(rng, eta, sv.KL, sv.KU, dim)
		default:
			t.Fatalf("unknown solver %T", solver)
		}
		want := serialSolve(solver, gs, dim)
		work := cloneAll(gs)
		ms, err := NewMultiSweep(env, solver, work)
		if err != nil {
			t.Fatal(err)
		}
		ms.Aggregate = aggregate
		ms.Overlap = ov
		if ov.Enabled && !hasSplitPhase(ms.CompiledPlan()) {
			t.Fatalf("p=%d γ=%v: overlap enabled but no phase is split", p, gamma)
		}
		mach := testMachine(p)
		res, err := mach.Run(func(r *sim.Rank) { ms.Run(r, dim) })
		if err != nil {
			t.Fatalf("p=%d γ=%v dim=%d: %v", p, gamma, dim, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("p=%d γ=%v dim=%d: makespan = %g", p, gamma, dim, res.Makespan)
		}
		for v := range want {
			if d := grid.MaxAbsDiff(want[v], work[v]); d > tol {
				t.Fatalf("p=%d γ=%v dim=%d solver=%s vec=%d: max diff %g", p, gamma, dim, solver.Name(), v, d)
			}
		}
		msgs += res.TotalMessages()
	}
	return msgs
}

// hasSplitPhase reports whether any phase of pl carries the boundary-first
// annotation.
func hasSplitPhase(pl *plan.SweepPlan) bool {
	for _, passes := range pl.Passes {
		for _, pp := range passes {
			for _, ph := range pp.Phases {
				if ph.Boundary > 0 {
					return true
				}
			}
		}
	}
	return false
}

func TestMultiSweepTridiagMatchesSerial(t *testing.T) {
	runMultiSweep(t, 4, []int{2, 2, 2}, []int{12, 10, 8}, sweep.Tridiag{}, true, plan.Overlap{}, []int{0, 1, 2})
	runMultiSweep(t, 8, []int{4, 4, 2}, []int{16, 13, 9}, sweep.Tridiag{}, true, plan.Overlap{}, []int{0, 1, 2})
	runMultiSweep(t, 16, []int{4, 4, 4}, []int{17, 16, 15}, sweep.Tridiag{}, true, plan.Overlap{}, []int{0, 1, 2})
	runMultiSweep(t, 6, []int{6, 6, 1}, []int{13, 14, 5}, sweep.Tridiag{}, true, plan.Overlap{}, []int{0, 1, 2})
}

func TestMultiSweepPentaMatchesSerial(t *testing.T) {
	runMultiSweep(t, 8, []int{4, 4, 2}, []int{14, 12, 10}, sweep.NewPenta(), true, plan.Overlap{}, []int{0, 1, 2})
	runMultiSweep(t, 9, []int{3, 3, 3}, []int{12, 11, 13}, sweep.NewPenta(), true, plan.Overlap{}, []int{0, 1, 2})
}

func TestMultiSweepRecurrenceMatchesSerial(t *testing.T) {
	runMultiSweep(t, 12, []int{6, 6, 2}, []int{12, 12, 12}, sweep.Recurrence{}, true, plan.Overlap{}, []int{0, 1, 2})
}

func TestMultiSweep2D(t *testing.T) {
	runMultiSweep(t, 5, []int{5, 5}, []int{17, 13}, sweep.Tridiag{}, true, plan.Overlap{}, []int{0, 1})
}

func TestMultiSweep4D(t *testing.T) {
	// 4-D arrays: γ = (2,2,2,2) is valid for p = 8 (every co-product is 8),
	// exercising the full d-generality of the construction and executor.
	runMultiSweep(t, 8, []int{2, 2, 2, 2}, []int{8, 7, 6, 5}, sweep.Tridiag{}, true, plan.Overlap{}, []int{0, 1, 2, 3})
}

func TestMultiSweepBlockTridiag(t *testing.T) {
	// The fat-carry path: 2×2 block tridiagonal sweeps over a
	// multipartitioned 3-D array (carries of B²+B = 6 values per line).
	p := 4
	gamma := []int{2, 2, 2}
	eta := []int{8, 8, 8}
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, eta, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	solver := sweep.NewBlockTridiag(2)
	rng := rand.New(rand.NewSource(99))
	for dim := 0; dim < 3; dim++ {
		gs := makeBlockTriGrids(rng, eta, 2, dim)
		want := serialSolve(solver, gs, dim)
		work := cloneAll(gs)
		ms, err := NewMultiSweep(env, solver, work)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := testMachine(p).Run(func(r *sim.Rank) { ms.Run(r, dim) }); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if d := grid.MaxAbsDiff(want[v], work[v]); d > 1e-8 {
				t.Fatalf("dim %d vec %d: max diff %g", dim, v, d)
			}
		}
	}
}

// makeBlockTriGrids builds block-diagonally-dominant block tridiagonal
// systems along dim over an eta-shaped domain, in sweep.BlockTridiag's vec
// layout.
func makeBlockTriGrids(rng *rand.Rand, eta []int, b, dim int) []*grid.Grid {
	bb := b * b
	gs := make([]*grid.Grid, 3*bb+b)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	n := eta[dim]
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			r, c := r, c
			gs[r*b+c].FillFunc(func(idx []int) float64 { // A blocks
				if idx[dim] == 0 {
					return 0
				}
				return rng.Float64()*0.4 - 0.2
			})
			gs[2*bb+r*b+c].FillFunc(func(idx []int) float64 { // C blocks
				if idx[dim] == n-1 {
					return 0
				}
				return rng.Float64()*0.4 - 0.2
			})
			if r != c {
				gs[bb+r*b+c].FillFunc(func([]int) float64 { return rng.Float64()*0.4 - 0.2 })
			}
		}
		gs[bb+r*b+r].FillFunc(func([]int) float64 { return 3 + rng.Float64() })  // dominant diag
		gs[3*bb+r].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 }) // rhs
	}
	return gs
}

func TestMultiSweepNonAggregated(t *testing.T) {
	strict := runMultiSweep(t, 8, []int{4, 4, 2}, []int{12, 12, 12}, sweep.Tridiag{}, false, plan.Overlap{}, []int{0, 2})
	// The per-tile ablation ignores the overlap annotation: same fields,
	// and exactly the overlap-off per-tile message count.
	overlapped := runMultiSweep(t, 8, []int{4, 4, 2}, []int{12, 12, 12}, sweep.Tridiag{}, false, plan.Overlap{Enabled: true}, []int{0, 2})
	if overlapped != strict {
		t.Errorf("per-tile messages with overlap on = %d, want the overlap-off %d", overlapped, strict)
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	// 8×8×4 on 8 procs: 4 tiles per processor per slab along dim 0 with
	// small per-tile carries, the regime where per-message overheads
	// dominate and aggregation pays off.
	p := 8
	m, err := core.NewGeneralized(p, []int{8, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, []int{32, 32, 8}, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	count := func(aggregate bool) (int, float64) {
		ms, err := NewMultiSweep(env, sweep.Tridiag{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ms.Aggregate = aggregate
		res, err := testMachine(p).Run(func(r *sim.Rank) { ms.Run(r, 0) })
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMessages(), res.Makespan
	}
	aggMsgs, aggTime := count(true)
	tileMsgs, tileTime := count(false)
	if tileMsgs <= aggMsgs {
		t.Errorf("per-tile messages (%d) should exceed aggregated (%d)", tileMsgs, aggMsgs)
	}
	if tileTime <= aggTime {
		t.Errorf("per-tile time (%g) should exceed aggregated (%g)", tileTime, aggTime)
	}
}

func TestModelOnlyMatchesDataModeMakespan(t *testing.T) {
	// The virtual clock advances identically whether payloads flow or not.
	p := 8
	gamma := []int{4, 4, 2}
	eta := []int{16, 16, 16}
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, eta, DHPF())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	gs := makeBandedGrids(rng, eta, 1, 1, 0)

	msData, err := NewMultiSweep(env, sweep.Tridiag{}, cloneAll(gs))
	if err != nil {
		t.Fatal(err)
	}
	resData, err := testMachine(p).Run(func(r *sim.Rank) { msData.Run(r, 0) })
	if err != nil {
		t.Fatal(err)
	}
	msModel, err := NewMultiSweep(env, sweep.Tridiag{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resModel, err := testMachine(p).Run(func(r *sim.Rank) { msModel.Run(r, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resData.Makespan-resModel.Makespan) > 1e-12*resData.Makespan {
		t.Errorf("data %g vs model %g makespan", resData.Makespan, resModel.Makespan)
	}
	if resData.TotalBytes() != resModel.TotalBytes() {
		t.Errorf("data %d vs model %d bytes", resData.TotalBytes(), resModel.TotalBytes())
	}
}

func TestBlockLocalSweep(t *testing.T) {
	p := 4
	eta := []int{12, 10, 8}
	b, err := NewBlock(p, eta, 0, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	gs := makeBandedGrids(rng, eta, 1, 1, 1)
	want := serialSolve(sweep.Tridiag{}, gs, 1)
	work := cloneAll(gs)
	_, err = testMachine(p).Run(func(r *sim.Rank) { b.LocalSweep(r, 1, sweep.Tridiag{}, work) })
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if d := grid.MaxAbsDiff(want[v], work[v]); d > tol {
			t.Fatalf("vec %d: max diff %g", v, d)
		}
	}
}

func TestBlockWavefrontSweep(t *testing.T) {
	for _, grain := range []int{1, 4, 1000} {
		p := 4
		eta := []int{13, 6, 5}
		b, err := NewBlock(p, eta, 0, HandCoded())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		gs := makeBandedGrids(rng, eta, 1, 1, 0)
		want := serialSolve(sweep.Tridiag{}, gs, 0)
		work := cloneAll(gs)
		_, err = testMachine(p).Run(func(r *sim.Rank) { b.WavefrontSweep(r, sweep.Tridiag{}, work, grain) })
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if d := grid.MaxAbsDiff(want[v], work[v]); d > tol {
				t.Fatalf("grain %d vec %d: max diff %g", grain, v, d)
			}
		}
	}
}

func TestWavefrontGranularityTradeoff(t *testing.T) {
	// Tiny grains pay message overhead; huge grains serialize the pipeline.
	// An intermediate grain should beat both extremes on a domain with many
	// lines.
	p := 8
	eta := []int{64, 24, 24}
	b, err := NewBlock(p, eta, 0, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	timeOf := func(grain int) float64 {
		res, err := testMachine(p).Run(func(r *sim.Rank) { b.WavefrontSweep(r, sweep.Tridiag{}, nil, grain) })
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	tiny := timeOf(1)
	mid := timeOf(36)
	huge := timeOf(24 * 24)
	if mid >= tiny {
		t.Errorf("grain 36 (%g) should beat grain 1 (%g)", mid, tiny)
	}
	if mid >= huge {
		t.Errorf("grain 36 (%g) should beat one-block pipeline (%g)", mid, huge)
	}
}

func TestBlockTransposeSweep(t *testing.T) {
	p := 4
	eta := []int{12, 8, 8}
	b, err := NewBlock(p, eta, 0, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	gs := makeBandedGrids(rng, eta, 1, 1, 0)
	want := serialSolve(sweep.Tridiag{}, gs, 0)
	work := cloneAll(gs)
	res, err := testMachine(p).Run(func(r *sim.Rank) { b.TransposeSweep(r, sweep.Tridiag{}, work) })
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if d := grid.MaxAbsDiff(want[v], work[v]); d > tol {
			t.Fatalf("vec %d: max diff %g", v, d)
		}
	}
	// Transpose moves bulk data: far more bytes than a multipartitioned
	// sweep's carries.
	if res.TotalBytes() == 0 {
		t.Error("transpose sweep sent no bytes")
	}
}

func TestTransposeSizesNonDivisibleExtent(t *testing.T) {
	// η[0] = 10, η[1] = 7, p = 4: slabs of 3,3,2,2 and 2,2,2,1 — nothing
	// divides evenly. The per-peer bytes must be the exact slab
	// intersections, summing to (own − self-overlap) per phase; the
	// historical own/p shortcut truncated and undercounted.
	p := 4
	eta := []int{10, 7, 5}
	b, err := NewBlock(p, eta, 0, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	const nGrids, tDim = 3, 1
	for phase := 0; phase < 2; phase++ {
		outDim, inDim := 0, tDim
		if phase == 1 {
			outDim, inDim = tDim, 0
		}
		for q := 0; q < p; q++ {
			sizes := b.transposeSizes(q, tDim, nGrids, phase)
			if sizes[q] != 0 {
				t.Fatalf("phase %d rank %d: self size %d, want 0", phase, q, sizes[q])
			}
			qlo, qhi := core.BlockRange(eta[outDim], p, q)
			ortho := eta[2] // the only dim other than 0 and tDim
			total := 0
			for d, s := range sizes {
				dlo, dhi := core.BlockRange(eta[inDim], p, d)
				want := (qhi - qlo) * (dhi - dlo) * ortho * 8 * nGrids
				if d == q {
					want = 0
				}
				if s != want {
					t.Errorf("phase %d rank %d → %d: %d bytes, want %d", phase, q, d, s, want)
				}
				total += s
			}
			// Everything q owns along outDim leaves except the slice staying
			// with q itself.
			qIn := func() int { lo, hi := core.BlockRange(eta[inDim], p, q); return hi - lo }()
			wantTotal := (qhi - qlo) * (eta[inDim] - qIn) * ortho * 8 * nGrids
			if total != wantTotal {
				t.Errorf("phase %d rank %d: total %d bytes, want %d", phase, q, total, wantTotal)
			}
			// The fix matters here: the historical uniform own/p estimate
			// (truncating division, self block smeared over peers) cannot
			// match the unequal slab intersections.
			own := (qhi - qlo) * eta[inDim] * ortho
			old := own / p * 8 * nGrids
			uniform := true
			for d, s := range sizes {
				if d != q && s != old {
					uniform = false
				}
			}
			if uniform {
				t.Errorf("phase %d rank %d: exact sizes all equal the truncated own/p value %d", phase, q, old)
			}
		}
	}
}

func TestExchangeHalosCompletes(t *testing.T) {
	p := 8
	m, err := core.NewGeneralized(p, []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, []int{16, 16, 16}, DHPF())
	if err != nil {
		t.Fatal(err)
	}
	res, err := testMachine(p).Run(func(r *sim.Rank) {
		env.ExchangeHalos(r, 2, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank exchanges in both directions of every cut dimension.
	if res.TotalMessages() != p*3*2 {
		t.Errorf("halo messages = %d, want %d", res.TotalMessages(), p*3*2)
	}
	if res.TotalBytes() == 0 {
		t.Error("halo exchange moved no bytes")
	}
}

func TestHaloBytesCounts(t *testing.T) {
	m, err := core.NewGeneralized(4, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, []int{16, 16, 4}, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	// Each proc owns 4 tiles of 4×4×4. Along dims 0 and 1 each tile has up
	// to 2 in-grid neighbors; dim 2 has γ=1 (no neighbors).
	got := env.HaloBytes(0, 1, 1)
	if got <= 0 {
		t.Fatalf("HaloBytes = %d", got)
	}
	// Upper bound: 4 tiles × 2 dims × 2 dirs × 16 cross × 8 bytes.
	if got > 4*2*2*16*8 {
		t.Errorf("HaloBytes = %d exceeds upper bound", got)
	}
}

func TestComputeOnTilesAccounting(t *testing.T) {
	p := 4
	m, err := core.NewGeneralized(p, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, []int{16, 16, 4}, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	visited := make([]int, p)
	res, err := testMachine(p).Run(func(r *sim.Rank) {
		env.ComputeOnTiles(r, 10, func(lo, hi []int) {
			visited[r.ID] += grid.RectOf(lo, hi).Size()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for q, v := range visited {
		if v != env.OwnedElements(q) {
			t.Errorf("rank %d visited %d elements, owns %d", q, v, env.OwnedElements(q))
		}
	}
	if res.Ranks[0].ComputeTime <= 0 {
		t.Error("no compute time charged")
	}
}

func TestOwnedElementsSumToDomain(t *testing.T) {
	m, err := core.NewGeneralized(30, []int{10, 15, 6})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, []int{31, 47, 13}, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for q := 0; q < 30; q++ {
		total += env.OwnedElements(q)
	}
	if total != 31*47*13 {
		t.Errorf("owned elements sum to %d, want %d", total, 31*47*13)
	}
}

func TestNewEnvValidation(t *testing.T) {
	m, err := core.NewGeneralized(4, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnv(m, []int{16, 16}, HandCoded()); err == nil {
		t.Error("rank mismatch should fail")
	}
	if _, err := NewEnv(m, []int{2, 16, 4}, HandCoded()); err == nil {
		t.Error("extent smaller than cuts should fail")
	}
}

func TestNewBlockValidation(t *testing.T) {
	if _, err := NewBlock(0, []int{8, 8}, 0, HandCoded()); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := NewBlock(2, []int{8, 8}, 5, HandCoded()); err == nil {
		t.Error("bad dim should fail")
	}
	if _, err := NewBlock(16, []int{8, 8}, 0, HandCoded()); err == nil {
		t.Error("p > extent should fail")
	}
}

func TestMultiSweepExactMessageCount(t *testing.T) {
	// Full vectorization: each rank sends exactly (γ_dim − 1) carry
	// messages per pass, so a tridiagonal sweep (forward + backward) totals
	// p · 2 · (γ_dim − 1) messages.
	cases := []struct {
		p     int
		gamma []int
		dim   int
	}{
		{8, []int{4, 4, 2}, 0},
		{8, []int{4, 4, 2}, 2},
		{16, []int{4, 4, 4}, 1},
		{30, []int{10, 15, 6}, 0},
		{6, []int{6, 6, 1}, 2}, // γ = 1: a fully local sweep, zero messages
	}
	for _, c := range cases {
		m, err := core.NewGeneralized(c.p, c.gamma)
		if err != nil {
			t.Fatal(err)
		}
		eta := []int{numutilMax(c.gamma[0], 8) * 2, numutilMax(c.gamma[1], 8) * 2, numutilMax(c.gamma[2], 8) * 2}
		env, err := NewEnv(m, eta, HandCoded())
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMultiSweep(env, sweep.Tridiag{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := testMachine(c.p).Run(func(r *sim.Rank) { ms.Run(r, c.dim) })
		if err != nil {
			t.Fatal(err)
		}
		want := c.p * 2 * (c.gamma[c.dim] - 1)
		if got := res.TotalMessages(); got != want {
			t.Errorf("p=%d γ=%v dim=%d: %d messages, want %d", c.p, c.gamma, c.dim, got, want)
		}
	}
}

func numutilMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSolverPanicMidRunSurfacesAsError(t *testing.T) {
	// Failure injection: a singular system makes the Thomas kernel panic on
	// one rank mid-sweep. The machine must return an error (with the rank
	// and cause), not deadlock the other ranks.
	p := 4
	m, err := core.NewGeneralized(p, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	eta := []int{8, 8, 4}
	env, err := NewEnv(m, eta, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]*grid.Grid, 4)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	gs[1].Fill(1)         // diag fine everywhere …
	gs[1].Set(0, 5, 3, 2) // … except one zero pivot deep in the domain
	ms, err := NewMultiSweep(env, sweep.Tridiag{}, gs)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := testMachine(p).Run(func(r *sim.Rank) { ms.Run(r, 0) })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the zero pivot")
		}
		if !strings.Contains(err.Error(), "pivot") {
			t.Errorf("error should name the pivot failure: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung instead of failing")
	}
}

func TestWavefrontInvalidGrainPanics(t *testing.T) {
	b, err := NewBlock(2, []int{8, 8}, 0, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	_, err = testMachine(2).Run(func(r *sim.Rank) {
		b.WavefrontSweep(r, sweep.Tridiag{}, nil, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "grainLines") {
		t.Fatalf("grain 0 should fail the run: %v", err)
	}
}

func TestMultiSweepWrongVecCount(t *testing.T) {
	m, err := core.NewGeneralized(4, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, []int{8, 8, 4}, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiSweep(env, sweep.Tridiag{}, []*grid.Grid{grid.New(8, 8, 4)}); err == nil {
		t.Error("vec-count mismatch should fail")
	}
	if _, err := NewMultiSweep(env, sweep.Tridiag{}, []*grid.Grid{
		grid.New(8, 8, 4), grid.New(8, 8, 4), grid.New(8, 8, 4), grid.New(9, 8, 4),
	}); err == nil {
		t.Error("vec-shape mismatch should fail")
	}
}

func TestOverheadModelsOrdering(t *testing.T) {
	h, d := HandCoded(), DHPF()
	if h.ComputeFactor >= d.ComputeFactor {
		t.Error("dHPF compute factor should exceed hand-coded")
	}
	if h.PerTileVisit >= d.PerTileVisit {
		t.Error("dHPF per-tile overhead should exceed hand-coded")
	}
}

func TestDHPFOverheadSlowsSweep(t *testing.T) {
	p := 8
	m, err := core.NewGeneralized(p, []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	timeUnder := func(ov OverheadModel) float64 {
		env, err := NewEnv(m, []int{32, 32, 32}, ov)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := NewMultiSweep(env, sweep.Tridiag{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := testMachine(p).Run(func(r *sim.Rank) {
			for dim := 0; dim < 3; dim++ {
				ms.Run(r, dim)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	th, td := timeUnder(HandCoded()), timeUnder(DHPF())
	if td <= th {
		t.Errorf("dHPF (%g) should be slower than hand-coded (%g)", td, th)
	}
}
