// Boundary-first overlapped phase execution (DESIGN.md §14). A phase
// annotated with a split (plan.Phase.Boundary > 0) runs as:
//
//	wait boundary carries → solve boundary lines → Isend boundary carry
//	→ prepost next phase's receives → wait interior carries
//	→ solve interior lines → Isend interior carry
//
// so the downstream rank starts its boundary solve after only the boundary
// share of the compute, and each rank's interior solve executes while its
// boundary carry is on the wire. Field data is bit-identical to the strict
// schedule: the batched kernels guarantee bit-equality regardless of panel
// grouping, and the boundary/interior regrouping never reorders lines.
//
// The message choreography is identical for every executor — MultiSweep,
// the wavefront pipeline, and dmem's strict SweepRunner — so it lives in
// the one shared helper OverlapPhase, parameterized over the transport
// interface and a per-executor solve callback.
package dist

import (
	"genmp/internal/plan"
	"genmp/internal/xport"
)

// OverlapPhaseSpec parameterizes one split-phase execution: the schedule
// position plus the two things that differ between executors — the packing
// overhead and the solve kernel.
type OverlapPhaseSpec struct {
	Pass  *plan.Pass
	Phase int
	// PerMessage is the executor's per-message packing overhead, charged
	// once per carry message received or sent.
	PerMessage float64
	// Payloads selects data mode: outgoing carries are assembled in pooled
	// payload buffers. False sends byte-count-only messages (model-only).
	Payloads bool
	// Solve computes the phase's canonical lines in [gLo, gHi) and charges
	// their flops. cIn/cOut hold the range's carries indexed from gLo (line
	// g's carry block starts at (g−gLo)·CarryLen); either may be nil.
	Solve func(gLo, gHi int, cIn, cOut []float64)
}

// OverlapPhase executes one split phase over any transport. preB/preI are
// this phase's receive requests if the previous phase preposted them (nil
// to post here); the return values are the next phase's preposted requests
// (nil when the next phase is unsplit or absent).
func OverlapPhase(t xport.Transport, sp OverlapPhaseSpec, preB, preI xport.Request) (nextB, nextI xport.Request) {
	pp := sp.Pass
	ph := &pp.Phases[sp.Phase]
	carryLen := pp.CarryLen
	bnd, inter := ph.InteriorBoundary()

	var reqB, reqI xport.Request
	if ph.RecvFrom >= 0 && carryLen > 0 {
		reqB, reqI = preB, preI
		if reqB == nil {
			reqB = t.Irecv(ph.RecvFrom, ph.RecvTag)
			reqI = t.Irecv(ph.RecvFrom, ph.InteriorRecvTag)
		}
	}

	var outB, outI []float64
	if ph.SendTo >= 0 && carryLen > 0 && sp.Payloads {
		outB = t.GetPayload(bnd * carryLen)
		outI = t.GetPayload(inter * carryLen)
	}

	// Boundary: wait the boundary carries, solve the boundary lines, ship
	// their carries immediately.
	var inB []float64
	if reqB != nil {
		msg := reqB.Wait()
		t.Compute(sp.PerMessage)
		inB = msg.Payload
	}
	sp.Solve(0, bnd, inB, outB)
	if inB != nil {
		t.PutPayload(inB)
	}
	var sendB, sendI xport.Request
	if ph.SendTo >= 0 && carryLen > 0 {
		t.Compute(sp.PerMessage)
		sendB = t.Isend(ph.SendTo, ph.SendTag, xport.Msg{Bytes: bnd * carryLen * 8, Payload: outB})
	}

	// The boundary carry is on the wire. Prepost the next phase's receives
	// (free in virtual time; the MPI discipline the real-parallel backend
	// inherits), then solve the interior while the messages fly.
	if sp.Phase+1 < len(pp.Phases) {
		if np := &pp.Phases[sp.Phase+1]; np.Boundary > 0 && np.RecvFrom >= 0 && carryLen > 0 {
			nextB = t.Irecv(np.RecvFrom, np.RecvTag)
			nextI = t.Irecv(np.RecvFrom, np.InteriorRecvTag)
		}
	}

	var inI []float64
	if reqI != nil {
		msg := reqI.Wait()
		t.Compute(sp.PerMessage)
		inI = msg.Payload
	}
	sp.Solve(bnd, ph.Lines, inI, outI)
	if inI != nil {
		t.PutPayload(inI)
	}
	if ph.SendTo >= 0 && carryLen > 0 {
		t.Compute(sp.PerMessage)
		sendI = t.Isend(ph.SendTo, ph.InteriorSendTag, xport.Msg{Bytes: inter * carryLen * 8, Payload: outI})
	}
	if sendB != nil {
		sendB.Wait()
	}
	if sendI != nil {
		sendI.Wait()
	}
	return nextB, nextI
}

// overlapPhase adapts MultiSweep's solve kernel to the shared executor.
func (s *MultiSweep) overlapPhase(r xport.Transport, pc *msPassCtx, pp *plan.Pass, k int, preB, preI xport.Request) (nextB, nextI xport.Request) {
	env := s.Env
	ph := &pp.Phases[k]
	return OverlapPhase(r, OverlapPhaseSpec{
		Pass: pp, Phase: k,
		PerMessage: env.Overhead.PerMessage,
		Payloads:   s.Vecs != nil,
		Solve: func(gLo, gHi int, cIn, cOut []float64) {
			elems := s.solveLineRange(r, pc, ph, gLo, gHi, cIn, cOut)
			r.ComputeFlops(pc.flopsPerElem * float64(elems) * env.Overhead.ComputeFactor)
		},
	}, preB, preI)
}

// wavefrontOverlapPhase adapts the wavefront pipeline's block solve to the
// shared executor: the phase is a contiguous run of whole lines, so the
// range [gLo, gHi) maps directly onto the cached line geometry.
func (b *Block) wavefrontOverlapPhase(r xport.Transport, wc *wfPassCtx, pp *plan.Pass, m int, preB, preI xport.Request) (nextB, nextI xport.Request) {
	ph := &pp.Phases[m]
	first := ph.Tiles[0].LineOff
	return OverlapPhase(r, OverlapPhaseSpec{
		Pass: pp, Phase: m,
		PerMessage: b.Overhead.PerMessage,
		Payloads:   wc.vecs != nil,
		Solve: func(gLo, gHi int, cIn, cOut []float64) {
			wc.solve(first+gLo, first+gHi, cIn, cOut)
			r.ComputeFlops(wc.flopsPerElem * float64((gHi-gLo)*wc.chunkLen) * b.Overhead.ComputeFactor)
		},
	}, preB, preI)
}
