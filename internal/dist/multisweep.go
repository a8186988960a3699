package dist

import (
	"fmt"
	"sync"

	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// MultiSweep executes a line sweep (forward elimination + back
// substitution) along one dimension of a multipartitioned array.
//
// In data mode, Vecs holds Solver.NumVecs() grids of the array's extents
// (the solver's per-line arrays; see internal/sweep for each solver's
// layout); the solution is produced in place. In model-only mode Vecs is
// nil and only time/bytes are accounted.
//
// Aggregate selects communication vectorization: when true (the behavior of
// both dHPF-generated and hand-coded multipartitioned codes), the carries
// of all lines of all of a processor's tiles in a slab travel in a single
// message per phase — possible because the mapping has the neighbor
// property; when false, one message per tile is sent (the ablation of
// DESIGN.md §4.1).
type MultiSweep struct {
	Env       *Env
	Solver    sweep.Solver
	Vecs      []*grid.Grid
	Aggregate bool
	// Batch is the panel width of the batched sweep kernels; values ≤ 0
	// pick sweep.DefaultBatchLines.
	Batch int
	// Overlap is folded into the lazily compiled plan's Spec (ignored when
	// Plan is pre-set): enabled, phases solve boundary lines first and post
	// the carry while the interior computes (DESIGN.md §14). The executor
	// itself switches on Plan.Overlap, so overlap is a property of the
	// compiled schedule, not of this struct. Overlap requires aggregated
	// messaging; with Aggregate false the annotation is ignored.
	Overlap plan.Overlap
	// Plan is the compiled schedule the executor runs. Leave nil to have
	// the first Run compile it from (Env, Solver, Batch, Overlap); pre-set
	// it to share one instance with other consumers (the cost fold, the obs
	// dump) — it must have been compiled from the same configuration.
	Plan *plan.SweepPlan
	// scratchBuf holds one reusable arena per rank (indexed by rank ID, so
	// concurrently running ranks never share); presized by init.
	scratchBuf []rankScratch
	once       sync.Once
}

// NewMultiSweep builds a sweep executor; vecs may be nil for model-only
// runs.
func NewMultiSweep(env *Env, solver sweep.Solver, vecs []*grid.Grid) (*MultiSweep, error) {
	if vecs != nil {
		if len(vecs) != solver.NumVecs() {
			return nil, fmt.Errorf("dist: solver %s needs %d grids, got %d", solver.Name(), solver.NumVecs(), len(vecs))
		}
		for i, g := range vecs {
			for dim, e := range env.Eta {
				if g.Shape()[dim] != e {
					return nil, fmt.Errorf("dist: grid %d has shape %v, want %v", i, g.Shape(), env.Eta)
				}
			}
		}
	}
	return &MultiSweep{Env: env, Solver: solver, Vecs: vecs, Aggregate: true}, nil
}

// init lazily compiles the plan and presizes the per-rank arenas exactly
// once, so a MultiSweep built as a literal is as allocation-free in steady
// state as one from NewMultiSweep.
func (s *MultiSweep) init() {
	s.once.Do(func() {
		if s.Plan == nil {
			pl, err := plan.Compile(plan.Spec{M: s.Env.M, Eta: s.Env.Eta, Solver: s.Solver, Batch: s.Batch, Overlap: s.Overlap})
			if err != nil {
				panic("dist: " + err.Error())
			}
			s.Plan = pl
		}
		if s.scratchBuf == nil {
			s.scratchBuf = make([]rankScratch, s.Env.M.P())
		}
	})
}

// CompiledPlan returns the executor's SweepPlan, compiling it on first use
// — the instance the cost model folds over and obs dumps.
func (s *MultiSweep) CompiledPlan() *plan.SweepPlan {
	s.init()
	return s.Plan
}

// WorkspaceStats aggregates arena acquisition counters across all ranks'
// scratch; with warmed arenas the hit rate is 1. Not safe against ranks
// still running.
func (s *MultiSweep) WorkspaceStats() sweep.WorkspaceStats {
	return scratchWorkspaceStats(s.scratchBuf)
}

// Run performs the full sweep along dim for the calling rank: the forward
// pass over slabs 0..γ−1 and (if the solver has one) the backward pass over
// slabs γ−1..0.
func (s *MultiSweep) Run(r xport.Transport, dim int) {
	s.init()
	s.pass(r, dim, false)
	if sweep.HasBackward(s.Solver) {
		s.pass(r, dim, true)
	}
}

func (s *MultiSweep) pass(r xport.Transport, dim int, backward bool) {
	env := s.Env
	q := r.Rank()
	pp := s.Plan.Pass(q, dim, backward)
	// Per-rank scratch: SoA panel arena and line geometry, reused across
	// phases, passes and steps. Each tile's lines are packed into panels
	// whose carries are read and written directly in the line-major message
	// payloads — the kernel's carry marshalling IS the wire format.
	pc := &msPassCtx{sc: &s.scratchBuf[q], dim: dim, backward: backward, carryLen: pp.CarryLen, batch: s.Batch}
	if pc.batch <= 0 {
		pc.batch = sweep.DefaultBatchLines
	}
	if s.Vecs != nil {
		pc.touched, pc.written = sweep.PassMasks(s.Solver, backward)
	}
	ex := PassExec{
		PerMessage:    env.Overhead.PerMessage,
		FlopsPerElem:  s.Solver.ForwardFlopsPerElement(),
		ComputeFactor: env.Overhead.ComputeFactor,
		Payloads:      s.Vecs != nil,
		Solve: func(k, gLo, gHi int, cIn, cOut []float64) int {
			return s.solveLineRange(r, pc, &pp.Phases[k], gLo, gHi, cIn, cOut)
		},
	}
	if backward {
		ex.FlopsPerElem = s.Solver.BackwardFlopsPerElement()
	}
	if s.Aggregate {
		RunPass(r, pp, ex)
	} else {
		perTilePass(r, pp, ex)
	}
	pc.sc.publish(r)
}

// perTilePass runs the non-aggregated ablation (DESIGN.md §4.1): one carry
// message per tile instead of one per phase. Overlap annotations are
// ignored. Received payloads are sub-slices of the sender's buffer, so
// they are copied out and never recycled here.
func perTilePass(t xport.Transport, pp *plan.Pass, ex PassExec) {
	carryLen := pp.CarryLen
	for k := range pp.Phases {
		// Per-tile line counts are identical on the sending and receiving
		// side of a phase boundary: tiles correspond by a one-slab shift,
		// which preserves both order and cross-section (Plan.Validate checks
		// exactly this symmetry).
		ph := &pp.Phases[k]
		var in []float64
		if ph.RecvFrom >= 0 && carryLen > 0 {
			if ex.Payloads {
				in = make([]float64, ph.Lines*carryLen)
			}
			off := 0
			for ti := range ph.Tiles {
				n := ph.Tiles[ti].Lines * carryLen
				msg := t.Recv(ph.RecvFrom, ph.RecvTag)
				t.Compute(ex.PerMessage)
				if in != nil {
					copy(in[off:off+n], msg.Payload)
				}
				off += n
			}
		}
		var out []float64
		if ph.SendTo >= 0 && carryLen > 0 && ex.Payloads {
			out = make([]float64, ph.Lines*carryLen)
		}
		elements := ex.Solve(k, 0, ph.Lines, in, out)
		t.ComputeFlops(ex.FlopsPerElem * float64(elements) * ex.ComputeFactor)
		if ph.SendTo >= 0 && carryLen > 0 {
			off := 0
			for ti := range ph.Tiles {
				n := ph.Tiles[ti].Lines * carryLen
				t.Compute(ex.PerMessage)
				msg := xport.Msg{Bytes: n * 8}
				if out != nil {
					msg.Payload = out[off : off+n]
				}
				off += n
				t.Send(ph.SendTo, ph.SendTag, msg)
			}
		}
	}
}

// msPassCtx bundles one pass invocation's resolved locals for the solve
// kernel.
type msPassCtx struct {
	sc               *rankScratch
	dim              int
	backward         bool
	carryLen         int
	batch            int
	touched, written []bool
}

// solveLineRange computes the phase's canonical lines in [gLo, gHi),
// clipping each tile to the range. cInBuf/cOutBuf hold the range's carries,
// indexed from gLo (line g's carry block starts at (g−gLo)·carryLen). Tiles
// intersecting the range pay PerTileVisit per visit — a tile straddling the
// split is visited twice. Returns the elements computed.
func (s *MultiSweep) solveLineRange(r xport.Transport, pc *msPassCtx, ph *plan.Phase, gLo, gHi int, cInBuf, cOutBuf []float64) int {
	env := s.Env
	carryLen := pc.carryLen
	nv := s.Solver.NumVecs()
	elements := 0
	for ti := range ph.Tiles {
		tg := &ph.Tiles[ti]
		lo := max(gLo, tg.LineOff)
		hi := min(gHi, tg.LineOff+tg.Lines)
		if lo >= hi {
			continue
		}
		r.Compute(env.Overhead.PerTileVisit)
		chunkLen := tg.ChunkLen
		elements += (hi - lo) * chunkLen
		if s.Vecs == nil {
			continue
		}
		sc := pc.sc
		sc.lines = s.Vecs[0].AppendLines(tg.Rect, pc.dim, sc.lines[:0])
		tLo, tHi := lo-tg.LineOff, hi-tg.LineOff
		for s0 := tLo; s0 < tHi; s0 += pc.batch {
			nb := min(pc.batch, tHi-s0)
			blk := sc.lines[s0 : s0+nb]
			panels := sc.pan.Panels(nv, nb*chunkLen)
			for v, g := range s.Vecs {
				if sweep.MaskOn(pc.touched, v) {
					g.GatherLines(blk, panels[v])
				}
			}
			var cIn, cOut []float64
			c0 := tg.LineOff + s0 - gLo
			if cInBuf != nil {
				cIn = cInBuf[c0*carryLen : (c0+nb)*carryLen]
			}
			if cOutBuf != nil {
				cOut = cOutBuf[c0*carryLen : (c0+nb)*carryLen]
			}
			if pc.backward {
				s.Solver.BackwardBatch(panels, nb, cIn, cOut)
			} else {
				s.Solver.ForwardBatch(panels, nb, cIn, cOut)
			}
			for v, g := range s.Vecs {
				if sweep.MaskOn(pc.written, v) {
					g.ScatterLines(blk, panels[v])
				}
			}
		}
	}
	return elements
}
