package dmem

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// poison is a NaN payload no fill or reference ever produces.
var poison = math.Float64frombits(0x7ff8_dead_beef_0001)

// filledPanels runs fill on NaN-poisoned panels of nv vectors, rows rows
// and nb lanes.
func filledPanels(fill func(dim, g0, nb, n int, panels [][]float64), nv, dim, g0, nb, n, rows int) [][]float64 {
	panels := make([][]float64, nv)
	for v := range panels {
		panels[v] = make([]float64, rows*nb)
		for i := range panels[v] {
			panels[v][i] = poison
		}
	}
	fill(dim, g0, nb, n, panels)
	return panels
}

// adiTestAlpha is the diffusion number of the ADI fill tests.
const adiTestAlpha = 0.3

// adiRefRow spells out the ADI half-step row independently of
// adi.Problem.Row: couplings −α, zeroed at the Dirichlet line ends, and a
// 1+2α diagonal.
func adiRefRow(g, n int) [3]float64 {
	row := [3]float64{-adiTestAlpha, 1 + 2*adiTestAlpha, -adiTestAlpha}
	if g == 0 {
		row[0] = 0
	}
	if g == n-1 {
		row[2] = 0
	}
	return row
}

// TestPanelFillsMatchReference checks every lane of the SP, BT and ADI
// panel fills against nas.BandRow, nas.BuildBlockLHS and adiRefRow bit for
// bit, for chunks that start at the line start, one row in, near and at
// the line end and mid-line, and run to the line end — so the zeroed
// couplings at both line ends fall inside the chunk. Vectors the fill does
// not supply must keep their poison.
func TestPanelFillsMatchReference(t *testing.T) {
	eta := []int{9, 12, 7}
	spVecs, btVecs := spPanelFill().Vecs, btPanelFill().Vecs
	adiFill := adiPanelFill(adi.Problem{Eta: eta, Alpha: adiTestAlpha})
	for dim, n := range eta {
		ref := make([]*grid.Grid, 3*nas.BTBlockSize*nas.BTBlockSize)
		for v := range ref {
			ref[v] = grid.New(eta...)
		}
		nas.BuildBlockLHS(dim, ref[0].Bounds(), ref)
		idx := make([]int, len(eta))
		for _, g0 := range []int{0, 1, n - 2, n - 1, n / 2} {
			rows := n - g0
			for _, nb := range []int{1, 7, 32} {
				name := fmt.Sprintf("dim %d g0 %d nb %d", dim, g0, nb)
				sp := filledPanels(fillSPPanels, len(spVecs), dim, g0, nb, n, rows)
				bp := filledPanels(fillBTPanels, len(btVecs), dim, g0, nb, n, rows)
				ap := filledPanels(adiFill.Func, len(adiFill.Vecs), dim, g0, nb, n, rows)
				for k := 0; k < rows; k++ {
					l1, l2, dg, u1, u2 := nas.BandRow(g0+k, dim, n)
					ar := adiRefRow(g0+k, n)
					idx[dim] = g0 + k
					for lane := 0; lane < nb; lane++ {
						i := k*nb + lane
						for v, want := range []float64{l1, l2, dg, u1, u2, poison} {
							if math.Float64bits(sp[v][i]) != math.Float64bits(want) {
								t.Fatalf("SP %s: vec %d row %d lane %d: fill %v, BandRow %v", name, v, k, lane, sp[v][i], want)
							}
						}
						for v := range bp {
							want := poison
							if btVecs[v] {
								want = ref[v].At(idx...)
							}
							if math.Float64bits(bp[v][i]) != math.Float64bits(want) {
								t.Fatalf("BT %s: vec %d row %d lane %d: fill %v, BuildBlockLHS %v", name, v, k, lane, bp[v][i], want)
							}
						}
						for v, want := range []float64{ar[0], ar[1], ar[2], poison} {
							if math.Float64bits(ap[v][i]) != math.Float64bits(want) {
								t.Fatalf("ADI %s: vec %d row %d lane %d: fill %v, reference %v", name, v, k, lane, ap[v][i], want)
							}
						}
					}
				}
			}
		}
	}
}

// fillCase is one solver with its panel fill and the reference that
// writes the same coefficients into global grids.
type fillCase struct {
	solver sweep.Solver
	fill   PanelFill
	// noField is the count of leading vectors the drivers leave nil.
	noField int
	build   func(dim int, gs []*grid.Grid)
}

func fillCases() []fillCase {
	return []fillCase{
		{
			solver:  sweep.NewPenta(),
			fill:    spPanelFill(),
			noField: spLowers,
			build: func(dim int, gs []*grid.Grid) {
				nas.BuildLHS(dim, gs[0].Bounds(), gs[0], gs[1], gs[2], gs[3], gs[4])
			},
		},
		{
			solver:  sweep.NewBlockTridiag(nas.BTBlockSize),
			fill:    btPanelFill(),
			noField: 2 * nas.BTBlockSize * nas.BTBlockSize,
			build: func(dim int, gs []*grid.Grid) {
				nas.BuildBlockLHS(dim, gs[0].Bounds(), gs)
			},
		},
		{
			solver: sweep.Tridiag{},
			fill:   adiPanelFill(adi.Problem{Alpha: adiTestAlpha}),
			// lower and diag; upper is filled but the backward pass reads
			// c′ back from it.
			noField: 2,
			build: func(dim int, gs []*grid.Grid) {
				n := gs[0].Shape()[dim]
				for v := 0; v < 3; v++ {
					gs[v].FillFunc(func(g []int) float64 { return adiRefRow(g[dim], n)[v] })
				}
			},
		},
	}
}

// TestSweepRunnerPanelFill runs the strict runner with the SP, BT and ADI
// fills and the drivers' nil fields (the accepted case of the nil-field
// check), on the strict and the overlapped schedule, against the same
// runner gathering the reference coefficients from full fields: every
// field both runs keep must agree bit for bit.
func TestSweepRunnerPanelFill(t *testing.T) {
	p, gamma, eta := 6, []int{2, 3, 6}, []int{12, 13, 12}
	env := mustEnv(t, p, gamma, eta)
	for _, c := range fillCases() {
		nv := c.solver.NumVecs()
		for _, o := range []plan.Overlap{{}, {Enabled: true}} {
			for dim := range eta {
				gs := make([]*grid.Grid, nv)
				for v := range gs {
					gs[v] = grid.New(eta...)
				}
				c.build(dim, gs)
				for v := range gs {
					if !c.fill.Vecs[v] {
						scale := float64(v)
						init := initialAt(eta)
						gs[v].FillFunc(func(g []int) float64 { return scale * init(g) })
					}
				}
				run := func(fill bool) []*grid.Grid {
					out := make([]*grid.Grid, nv)
					_, err := testMachine(p).Run(func(r *sim.Rank) {
						fields := make([]*Field, nv)
						for v := range fields {
							if fill && v < c.noField {
								continue
							}
							fields[v] = NewField(env, r.ID, 0)
							v := v
							fields[v].FillFunc(func(g []int) float64 { return gs[v].At(g...) })
						}
						runner := NewSweepRunner(c.solver, fields)
						runner.Overlap = o
						runner.Batch = 7
						if fill {
							runner.Fill = c.fill
						}
						runner.Run(r, dim)
						for v := c.noField; v < nv; v++ {
							if g := GatherToRoot(r, fields[v], xport.AlgAuto); g != nil {
								out[v] = g
							}
						}
					})
					if err != nil {
						t.Fatalf("%s dim %d overlap %v fill %v: %v", c.solver.Name(), dim, o.Enabled, fill, err)
					}
					return out
				}
				want, got := run(false), run(true)
				for v := c.noField; v < nv; v++ {
					wd, gd := want[v].Data(), got[v].Data()
					for i := range wd {
						if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
							t.Fatalf("%s dim %d overlap %v: vec %d element %d: gathered %v vs filled %v",
								c.solver.Name(), dim, o.Enabled, v, i, wd[i], gd[i])
						}
					}
				}
			}
		}
	}
}

// TestSweepRunnerRejectsBadNilFields checks the first Run's nil-field
// check: a nil field the fill does not supply, and a filled one the
// backward pass reads, each fail with a message naming the solver and the
// vector.
func TestSweepRunnerRejectsBadNilFields(t *testing.T) {
	p, gamma, eta := 4, []int{2, 2, 2}, []int{8, 8, 8}
	env := mustEnv(t, p, gamma, eta)
	for _, c := range fillCases() {
		nv := c.solver.NumVecs()
		for _, bad := range []struct {
			fill bool
			gap  int
			want string
		}{
			{false, 0, "field 0 is nil but the panel fill does not supply it"},
			{true, nv - 1, fmt.Sprintf("field %d is nil but the panel fill does not supply it", nv-1)},
			{true, c.noField, fmt.Sprintf("field %d is nil but the backward pass reads it", c.noField)},
		} {
			_, err := testMachine(p).Run(func(r *sim.Rank) {
				fields := make([]*Field, nv)
				for v := range fields {
					if v != bad.gap {
						fields[v] = NewField(env, r.ID, 0)
					}
				}
				runner := NewSweepRunner(c.solver, fields)
				if bad.fill {
					runner.Fill = c.fill
				}
				runner.Run(r, 0)
			})
			if err == nil {
				t.Fatalf("%s: nil field %d (fill %v) accepted", c.solver.Name(), bad.gap, bad.fill)
			}
			msg := err.Error()
			if !strings.Contains(msg, c.solver.Name()) || !strings.Contains(msg, bad.want) {
				t.Errorf("%s: nil field %d (fill %v): error %q does not name the solver and %q",
					c.solver.Name(), bad.gap, bad.fill, msg, bad.want)
			}
		}
	}
}
