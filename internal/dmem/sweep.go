package dmem

import (
	"fmt"

	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// SweepRunner executes line sweeps over one rank's strictly distributed
// fields. The schedule itself — phases, neighbors, tags, carry byte counts
// — is a compiled plan.SweepPlan shared with every other consumer; the
// runner keeps only what binds that plan to this rank's storage: each
// tile's local index and per-field line geometry (each field may have its
// own halo depth, so the offsets differ even though the cross-sections
// coincide), plus the SoA panel arenas of the batched kernels. A rank
// builds one runner and reuses it across timesteps and dimensions, so the
// steady state allocates nothing: carries travel in pooled payload
// buffers, and line data moves through the reusable workspace panels.
type SweepRunner struct {
	Solver sweep.Solver
	// Fields holds one field per solver vector. A vector that Fill
	// supplies and the backward pass never reads needs no storage: its
	// field may be nil (checked at the first Run).
	Fields []*Field
	// Fill, when its Func is set, generates the vectors it marks straight
	// into the forward pass's panels instead of gathering them from Fields.
	Fill PanelFill
	// Batch is the panel width of the batched sweep kernels; values ≤ 0
	// pick sweep.DefaultBatchLines.
	Batch int
	// Overlap is folded into the lazily compiled plan's Spec (ignored when
	// Plan is pre-set — use CompileSweepPlanOverlap for the shared
	// instance). The runner itself switches on Plan.Overlap.
	Overlap plan.Overlap
	// Plan is the compiled schedule the runner executes. Leave nil to have
	// the first Run compile it from the fields' environment; pre-set it
	// (see CompileSweepPlanOverlap) to share one instance across all rank
	// runners instead of compiling the full O(p) schedule per rank.
	Plan *plan.SweepPlan

	pan   sweep.Workspace // SoA panel arena
	pub   sweep.WorkspacePublisher
	binds map[int][][]tileBind
	// masks holds the forward [0] and backward [1] pass's gather/scatter
	// masks, resolved once at the first Run.
	masks    [2]passMasks
	masksSet bool
}

// PanelFill generates panel vectors whose values depend only on the global
// row, the sweep dimension and the line length — SP's bands, BT's blocks,
// ADI's tridiagonal rows — so the forward pass computes them in place instead of reading them back
// from fields. Vecs marks the vectors Func supplies (len NumVecs). Func
// fills them for a panel of nb lines whose first row lies at global index
// g0 along dim, on lines of n points; the panel holds len(panels[v])/nb
// rows. A filled vector is still scattered after the forward pass when the
// backward pass reads it; one it never reads needs no field.
type PanelFill struct {
	Vecs []bool
	Func func(dim, g0, nb, n int, panels [][]float64)
}

// passMasks says which vectors one pass gathers from and scatters to the
// fields; a nil mask means every vector (sweep.MaskOn).
type passMasks struct {
	gather, scatter []bool
}

// WorkspaceStats reports this runner's arena acquisition counters; with
// warmed arenas the hit rate is 1. Runners are per-rank, so read it only
// after the owning rank has finished.
func (sr *SweepRunner) WorkspaceStats() sweep.WorkspaceStats {
	return sr.pan.Stats()
}

// tileBind binds one plan tile to this rank's storage: the local tile
// index, the tile's global start along the sweep dimension and, per
// non-nil field, the tile's line offsets in the shared canonical order
// (identical cross-sections, field-specific padding).
type tileBind struct {
	local int
	g0    int
	geom  [][]grid.Line
}

// CompileSweepPlanOverlap compiles the sweep schedule the strict runtime
// executes over env with the given solver — the one instance every rank's
// SweepRunner should share (set SweepRunner.Plan). The fields are assumed
// unpadded (the solve vectors of the strict applications); runners over
// padded fields may still share it, since padding only moves storage
// offsets, which live in the runner's binding cache, not the plan. The
// zero Overlap yields the strict schedule; an enabled one adds per-phase
// split points and interior-message tags.
func CompileSweepPlanOverlap(env *dist.Env, solver sweep.Solver, o plan.Overlap) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{
		M: env.M, Eta: env.Eta, Solver: solver,
		Halos:   make([]int, solver.NumVecs()),
		Overlap: o,
	})
}

// NewSweepRunner builds a runner for one rank's fields. fields must hold
// Solver.NumVecs() fields of the same rank; only vectors a Fill supplies
// and the backward pass never reads may be nil.
func NewSweepRunner(solver sweep.Solver, fields []*Field) *SweepRunner {
	if len(fields) != solver.NumVecs() {
		panic(fmt.Sprintf("dmem: solver %s needs %d fields, got %d", solver.Name(), solver.NumVecs(), len(fields)))
	}
	return &SweepRunner{Solver: solver, Fields: fields, binds: map[int][][]tileBind{}}
}

// ensurePlan compiles the runner's schedule on first use when no shared
// instance was provided.
func (sr *SweepRunner) ensurePlan() {
	if sr.Plan != nil {
		return
	}
	f0 := sr.ref()
	halos := make([]int, len(sr.Fields))
	for i, f := range sr.Fields {
		if f != nil {
			halos[i] = f.Depth
		}
	}
	pl, err := plan.Compile(plan.Spec{
		M: f0.Env.M, Eta: f0.Env.Eta, Solver: sr.Solver,
		Halos: halos, Batch: sr.Batch, Overlap: sr.Overlap,
	})
	if err != nil {
		panic("dmem: " + err.Error())
	}
	sr.Plan = pl
}

// CompiledPlan returns the runner's SweepPlan, compiling it on first use.
func (sr *SweepRunner) CompiledPlan() *plan.SweepPlan {
	sr.ensurePlan()
	return sr.Plan
}

// ref returns the runner's first non-nil field: every field shares its
// environment and rank.
func (sr *SweepRunner) ref() *Field {
	for _, f := range sr.Fields {
		if f != nil {
			return f
		}
	}
	panic(fmt.Sprintf("dmem: solver %s: every field is nil", sr.Solver.Name()))
}

// ensureMasks resolves both passes' gather/scatter masks on first use and
// checks that every nil field is one the fill supplies and the backward
// pass never reads. Without a fill the masks are the solver's PassMasks.
// With one, the forward pass gathers what it touches unless the fill
// supplies it, and scatters what it writes — or, for a filled vector, what
// the backward pass reads back.
func (sr *SweepRunner) ensureMasks() {
	if sr.masksSet {
		return
	}
	s := sr.Solver
	nv := s.NumVecs()
	fill := sr.Fill.Vecs
	if sr.Fill.Func == nil {
		fill = nil
	} else if len(fill) != nv {
		panic(fmt.Sprintf("dmem: solver %s: panel fill marks %d vectors, want %d", s.Name(), len(fill), nv))
	}
	fwdT, fwdW := sweep.PassMasks(s, false)
	bwdT, bwdW := sweep.PassMasks(s, true)
	fm := passMasks{gather: fwdT, scatter: fwdW}
	bwd := sweep.HasBackward(sr.Solver)
	if fill != nil {
		fm = passMasks{gather: make([]bool, nv), scatter: make([]bool, nv)}
	}
	for v := 0; v < nv; v++ {
		filled := fill != nil && fill[v]
		readBack := bwd && sweep.MaskOn(bwdT, v)
		switch {
		case filled:
			fm.scatter[v] = readBack
		case fill != nil:
			fm.gather[v] = sweep.MaskOn(fwdT, v)
			fm.scatter[v] = sweep.MaskOn(fwdW, v)
		}
		if sr.Fields[v] != nil {
			continue
		}
		if !filled {
			panic(fmt.Sprintf("dmem: solver %s: field %d is nil but the panel fill does not supply it", s.Name(), v))
		}
		if readBack {
			panic(fmt.Sprintf("dmem: solver %s: field %d is nil but the backward pass reads it", s.Name(), v))
		}
	}
	sr.masks = [2]passMasks{fm, {gather: bwdT, scatter: bwdW}}
	sr.masksSet = true
}

// Run performs the full sweep along dim for the calling rank.
func (sr *SweepRunner) Run(r xport.Transport, dim int) {
	sr.ensurePlan()
	sr.ensureMasks()
	sr.pass(r, dim, false)
	if sweep.HasBackward(sr.Solver) {
		sr.pass(r, dim, true)
	}
	sr.pub.Publish(r.MetricsRegistry(), &sr.pan)
}

// bindings returns the storage binding of the plan's (dim, backward) pass
// for this rank's fields, resolving local tile indices and per-field line
// geometry on first use.
func (sr *SweepRunner) bindings(pp *plan.Pass, dim int, backward bool) [][]tileBind {
	key := dim * 2
	if backward {
		key++
	}
	if sr.binds == nil {
		sr.binds = map[int][][]tileBind{}
	}
	if tb, ok := sr.binds[key]; ok {
		return tb
	}
	f0 := sr.ref()
	out := make([][]tileBind, len(pp.Phases))
	for k := range pp.Phases {
		ph := &pp.Phases[k]
		tb := make([]tileBind, len(ph.Tiles))
		for ti := range ph.Tiles {
			t := &ph.Tiles[ti]
			i := f0.LocalTileOf(t.Coord)
			if i < 0 {
				panic("dmem: sweep plan names a tile this rank does not own")
			}
			geom := make([][]grid.Line, len(sr.Fields))
			for v, f := range sr.Fields {
				if f == nil {
					continue
				}
				// Fields with equal halo depth have identical padded shapes
				// and so identical line geometry — share one slice.
				shared := false
				for w := 0; w < v; w++ {
					if g := sr.Fields[w]; g != nil && g.Depth == f.Depth {
						geom[v] = geom[w]
						shared = true
						break
					}
				}
				if !shared {
					geom[v] = f.TileGrid(i).AppendLines(f.InteriorRect(i), dim, make([]grid.Line, 0, t.Lines))
				}
			}
			tb[ti] = tileBind{local: i, g0: f0.GlobalBounds(i).Lo[dim], geom: geom}
		}
		out[k] = tb
	}
	sr.binds[key] = out
	return out
}

func (sr *SweepRunner) pass(r xport.Transport, dim int, backward bool) {
	solver := sr.Solver
	env := sr.ref().Env
	pp := sr.Plan.Pass(r.Rank(), dim, backward)
	pc := &dmPassCtx{
		env: env, binds: sr.bindings(pp, dim, backward), dim: dim, backward: backward,
		carryLen: pp.CarryLen, batch: sr.Batch,
	}
	if pc.batch <= 0 {
		pc.batch = sweep.DefaultBatchLines
	}
	ex := dist.PassExec{
		PerMessage:    env.Overhead.PerMessage,
		FlopsPerElem:  solver.ForwardFlopsPerElement(),
		ComputeFactor: env.Overhead.ComputeFactor,
		Payloads:      true,
		Solve: func(k, gLo, gHi int, cIn, cOut []float64) int {
			return sr.solveLineRange(r, pc, &pp.Phases[k], k, gLo, gHi, cIn, cOut)
		},
	}
	if backward {
		pc.passMasks = sr.masks[1]
		ex.FlopsPerElem = solver.BackwardFlopsPerElement()
	} else {
		pc.passMasks = sr.masks[0]
		pc.fill = sr.Fill.Func
	}
	dist.RunPass(r, pp, ex)
}

// dmPassCtx bundles one pass invocation's resolved locals for the solve
// kernel.
type dmPassCtx struct {
	passMasks
	env      *dist.Env
	binds    [][]tileBind
	dim      int
	backward bool
	carryLen int
	batch    int
	// fill is the runner's panel fill on the forward pass, else nil.
	fill func(dim, g0, nb, n int, panels [][]float64)
}

// solveLineRange computes the phase's canonical lines in [gLo, gHi) over
// this rank's bound tile storage, clipping each tile to the range.
// cInBuf/cOutBuf hold the range's carries indexed from gLo. Tiles
// intersecting the range pay PerTileVisit per visit.
// On the forward pass the fill, if any, generates its vectors in place of
// the gather.
func (sr *SweepRunner) solveLineRange(r xport.Transport, pc *dmPassCtx, ph *plan.Phase, k, gLo, gHi int, cInBuf, cOutBuf []float64) int {
	fields := sr.Fields
	carryLen := pc.carryLen
	elements := 0
	for ti := range ph.Tiles {
		t := &ph.Tiles[ti]
		lo := max(gLo, t.LineOff)
		hi := min(gHi, t.LineOff+t.Lines)
		if lo >= hi {
			continue
		}
		tb := &pc.binds[k][ti]
		r.Compute(pc.env.Overhead.PerTileVisit)
		elements += (hi - lo) * t.ChunkLen
		tLo, tHi := lo-t.LineOff, hi-t.LineOff
		for s0 := tLo; s0 < tHi; s0 += pc.batch {
			nb := min(pc.batch, tHi-s0)
			panels := sr.pan.Panels(len(fields), nb*t.ChunkLen)
			for v, f := range fields {
				if sweep.MaskOn(pc.gather, v) {
					f.TileGrid(tb.local).GatherLines(tb.geom[v][s0:s0+nb], panels[v])
				}
			}
			if pc.fill != nil {
				pc.fill(pc.dim, tb.g0, nb, pc.env.Eta[pc.dim], panels)
			}
			var cIn, cOut []float64
			c0 := t.LineOff + s0 - gLo
			if cInBuf != nil {
				cIn = cInBuf[c0*carryLen : (c0+nb)*carryLen]
			}
			if cOutBuf != nil {
				cOut = cOutBuf[c0*carryLen : (c0+nb)*carryLen]
			}
			if pc.backward {
				sr.Solver.BackwardBatch(panels, nb, cIn, cOut)
			} else {
				sr.Solver.ForwardBatch(panels, nb, cIn, cOut)
			}
			for v, f := range fields {
				if sweep.MaskOn(pc.scatter, v) {
					f.TileGrid(tb.local).ScatterLines(tb.geom[v][s0:s0+nb], panels[v])
				}
			}
		}
	}
	return elements
}
