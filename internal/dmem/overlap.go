// Boundary-first overlapped phase execution for the strict runtime — the
// dmem adapter over the shared executor dist.OverlapPhase (DESIGN.md §14).
// A split phase waits only the boundary carries, solves the boundary
// lines, posts their carry with Isend, preposts the next phase's receives,
// and solves the interior while the messages fly. Field data is
// bit-identical to the strict schedule: the batched kernels are bit-equal
// under any panel grouping, and the split never reorders the canonical
// line order.
package dmem

import (
	"genmp/internal/dist"
	"genmp/internal/plan"
	"genmp/internal/xport"
)

// overlapPhase adapts the strict runtime's solve kernel to the shared
// executor. preB/preI are receive requests preposted by the previous phase
// (nil to post here); the return values are the next phase's preposted
// requests.
func (sr *SweepRunner) overlapPhase(r xport.Transport, pc *dmPassCtx, pp *plan.Pass, k int, preB, preI xport.Request) (nextB, nextI xport.Request) {
	env := pc.env
	ph := &pp.Phases[k]
	return dist.OverlapPhase(r, dist.OverlapPhaseSpec{
		Pass: pp, Phase: k,
		PerMessage: env.Overhead.PerMessage,
		Payloads:   true,
		Solve: func(gLo, gHi int, cIn, cOut []float64) {
			elems := sr.solveLineRange(r, pc, ph, k, gLo, gHi, cIn, cOut)
			r.ComputeFlops(pc.flopsPerElem * float64(elems) * env.Overhead.ComputeFactor)
		},
	}, preB, preI)
}
