// The one interpreter of a compiled sweep pass (DESIGN.md §14, §15). Every
// executor — MultiSweep, the wavefront pipeline and dmem's strict
// SweepRunner — hands RunPass its plan.Pass and a PassExec; the message
// protocol (receive the carries, solve, send) lives only here.
//
// A phase annotated with a split (plan.Phase.Boundary > 0) runs
// boundary-first:
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
package dist

import (
	"genmp/internal/plan"
	"genmp/internal/xport"
)

// PassExec is what differs between the executors that run a compiled pass:
// the overhead charges, data vs model-only messaging, and the solve kernel.
// Executors fill it per pass.
type PassExec struct {
	// PerMessage is the executor's per-message packing overhead, charged
	// once per carry message received or sent.
	PerMessage float64
	// FlopsPerElem is the pass's flops per line element; after each solve
	// RunPass charges FlopsPerElem · elements · ComputeFactor.
	FlopsPerElem  float64
	ComputeFactor float64
	// Payloads selects data mode: outgoing carries are assembled in pooled
	// payload buffers. False sends byte-count-only messages (model-only).
	Payloads bool
	// Solve computes phase k's canonical lines in [gLo, gHi) and returns
	// the elements it covered. cIn/cOut hold the range's carries indexed
	// from gLo (line g's carry block starts at (g−gLo)·CarryLen); either
	// may be nil.
	Solve func(k, gLo, gHi int, cIn, cOut []float64) (elements int)
}

// RunPass executes every phase of pp for the calling rank: strict phases
// as receive → solve → send, split phases boundary-first.
func RunPass(t xport.Transport, pp *plan.Pass, ex PassExec) {
	carryLen := pp.CarryLen
	// preB/preI carry receive requests preposted for the next phase while
	// the current split phase's interior solve hides the wire.
	var preB, preI xport.Request
	for k := range pp.Phases {
		ph := &pp.Phases[k]
		if ph.Boundary > 0 {
			preB, preI = splitPhase(t, pp, k, &ex, preB, preI)
			continue
		}
		// Carries arrive in a pooled payload whose ownership transfers with
		// the message; it is recycled once every line has read its rows.
		// Outgoing carries are assembled directly in a pooled payload — the
		// batched kernels' carry marshalling IS the wire format.
		var in []float64
		if ph.RecvFrom >= 0 && carryLen > 0 {
			msg := t.Recv(ph.RecvFrom, ph.RecvTag)
			t.Compute(ex.PerMessage)
			in = msg.Payload
		}
		var out []float64
		if ph.SendTo >= 0 && carryLen > 0 && ex.Payloads {
			out = t.GetPayload(ph.Lines * carryLen)
		}
		ex.solve(t, k, 0, ph.Lines, in, out)
		if ph.SendTo >= 0 && carryLen > 0 {
			t.Compute(ex.PerMessage)
			t.Send(ph.SendTo, ph.SendTag, xport.Msg{Bytes: ph.SendBytes, Payload: out})
		}
	}
}

// solve runs Solve over one range, recycles the consumed incoming payload
// and charges the range's flops, so boundary and interior compute appear as
// separate intervals.
func (ex *PassExec) solve(t xport.Transport, k, gLo, gHi int, in, out []float64) {
	elements := ex.Solve(k, gLo, gHi, in, out)
	if in != nil {
		t.PutPayload(in)
	}
	t.ComputeFlops(ex.FlopsPerElem * float64(elements) * ex.ComputeFactor)
}

// splitPhase executes split phase k. preB/preI are this phase's receive
// requests if the previous phase preposted them (nil to post here); the
// return values are the next phase's preposted requests (nil when the next
// phase is unsplit or absent).
func splitPhase(t xport.Transport, pp *plan.Pass, k int, ex *PassExec, preB, preI xport.Request) (nextB, nextI xport.Request) {
	ph := &pp.Phases[k]
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
	if ph.SendTo >= 0 && carryLen > 0 && ex.Payloads {
		outB = t.GetPayload(bnd * carryLen)
		outI = t.GetPayload(inter * carryLen)
	}

	// Boundary: wait the boundary carries, solve the boundary lines, ship
	// their carries immediately.
	var inB []float64
	if reqB != nil {
		msg := reqB.Wait()
		t.Compute(ex.PerMessage)
		inB = msg.Payload
	}
	ex.solve(t, k, 0, bnd, inB, outB)
	var sendB, sendI xport.Request
	if ph.SendTo >= 0 && carryLen > 0 {
		t.Compute(ex.PerMessage)
		sendB = t.Isend(ph.SendTo, ph.SendTag, xport.Msg{Bytes: bnd * carryLen * 8, Payload: outB})
	}

	// The boundary carry is on the wire. Prepost the next phase's receives
	// (free in virtual time; the MPI discipline the real-parallel backend
	// inherits), then solve the interior while the messages fly.
	if k+1 < len(pp.Phases) {
		if np := &pp.Phases[k+1]; np.Boundary > 0 && np.RecvFrom >= 0 && carryLen > 0 {
			nextB = t.Irecv(np.RecvFrom, np.RecvTag)
			nextI = t.Irecv(np.RecvFrom, np.InteriorRecvTag)
		}
	}

	var inI []float64
	if reqI != nil {
		msg := reqI.Wait()
		t.Compute(ex.PerMessage)
		inI = msg.Payload
	}
	ex.solve(t, k, bnd, ph.Lines, inI, outI)
	if ph.SendTo >= 0 && carryLen > 0 {
		t.Compute(ex.PerMessage)
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
