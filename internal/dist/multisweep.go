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
	if s.Solver.BackwardCarryLen() > 0 || s.Solver.BackwardFlopsPerElement() > 0 {
		s.pass(r, dim, true)
	}
}

func (s *MultiSweep) pass(r xport.Transport, dim int, backward bool) {
	env := s.Env
	q := r.Rank()
	pp := s.Plan.Pass(q, dim, backward)
	carryLen := pp.CarryLen
	flopsPerElem := s.Solver.ForwardFlopsPerElement()
	if backward {
		flopsPerElem = s.Solver.BackwardFlopsPerElement()
	}
	// Per-rank scratch: SoA panel arena and line geometry, reused across
	// phases, passes and steps. Each tile's lines are packed into panels
	// whose carries are read and written directly in the line-major message
	// payloads — the kernel's carry marshalling IS the wire format.
	pc := &msPassCtx{
		sc: &s.scratchBuf[q], dim: dim, backward: backward, carryLen: carryLen,
		flopsPerElem: flopsPerElem, batch: s.Batch,
	}
	if pc.batch <= 0 {
		pc.batch = sweep.DefaultBatchLines
	}
	if s.Vecs != nil {
		pc.touched, pc.written = sweep.PassMasks(s.Solver, backward)
	}

	// Overlap-annotated phases run the boundary-first schedule; preB/preI
	// carry receive requests preposted for the next phase while the current
	// one's interior solve hides the wire.
	var preB, preI xport.Request
	for k := range pp.Phases {
		ph := &pp.Phases[k]
		if ph.Boundary > 0 && s.Aggregate {
			preB, preI = s.overlapPhase(r, pc, pp, k, preB, preI)
			continue
		}
		// Per-tile line counts are identical on the sending and receiving
		// side of a phase boundary: tiles correspond by a one-slab shift,
		// which preserves both order and cross-section (Plan.Validate checks
		// exactly this symmetry).
		lines := ph.Lines

		// Receive the carries produced by the upstream slab. An aggregated
		// payload is a pooled buffer whose ownership arrives with the
		// message; it is recycled below once consumed. Non-aggregated
		// payloads are sub-slices of the sender's buffer and must not be
		// recycled here.
		var inBuf []float64
		pooledIn := false
		if ph.RecvFrom >= 0 && carryLen > 0 {
			if s.Aggregate {
				msg := r.Recv(ph.RecvFrom, ph.RecvTag)
				r.Compute(env.Overhead.PerMessage)
				inBuf = msg.Payload
				pooledIn = inBuf != nil
			} else {
				if s.Vecs != nil {
					inBuf = make([]float64, lines*carryLen)
				}
				off := 0
				for ti := range ph.Tiles {
					n := ph.Tiles[ti].Lines
					msg := r.Recv(ph.RecvFrom, ph.RecvTag)
					r.Compute(env.Overhead.PerMessage)
					if inBuf != nil {
						copy(inBuf[off:off+n*carryLen], msg.Payload)
					}
					off += n * carryLen
				}
			}
		}

		var outBuf []float64
		if ph.SendTo >= 0 && carryLen > 0 && s.Vecs != nil {
			if s.Aggregate {
				outBuf = r.GetPayload(lines * carryLen)
			} else {
				outBuf = make([]float64, lines*carryLen)
			}
		}

		// Compute this slab's tiles.
		elements := s.solveLineRange(r, pc, ph, 0, lines, inBuf, outBuf)
		if pooledIn {
			r.PutPayload(inBuf)
		}
		r.ComputeFlops(flopsPerElem * float64(elements) * env.Overhead.ComputeFactor)

		// Ship the carries downstream.
		if ph.SendTo >= 0 && carryLen > 0 {
			if s.Aggregate {
				r.Compute(env.Overhead.PerMessage)
				r.Send(ph.SendTo, ph.SendTag, xport.Msg{Bytes: ph.SendBytes, Payload: outBuf})
			} else {
				off := 0
				for ti := range ph.Tiles {
					n := ph.Tiles[ti].Lines
					r.Compute(env.Overhead.PerMessage)
					msg := xport.Msg{Bytes: n * carryLen * 8}
					if outBuf != nil {
						msg.Payload = outBuf[off : off+n*carryLen]
					}
					off += n * carryLen
					r.Send(ph.SendTo, ph.SendTag, msg)
				}
			}
		}
	}
	pc.sc.publish(r)
}

// msPassCtx bundles one pass invocation's resolved locals so the strict
// loop and the overlapped phase executor share them without re-deriving.
type msPassCtx struct {
	sc               *rankScratch
	dim              int
	backward         bool
	carryLen         int
	flopsPerElem     float64
	batch            int
	touched, written []bool
}

// solveLineRange computes the phase's canonical lines in [gLo, gHi),
// clipping each tile to the range. cInBuf/cOutBuf hold the range's carries,
// indexed from gLo (line g's carry block starts at (g−gLo)·carryLen). Tiles
// intersecting the range pay PerTileVisit per visit — a tile straddling the
// split is visited twice. Returns the elements computed; the caller charges
// the flops so boundary and interior compute appear as separate intervals.
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
