package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"genmp/internal/grid"
	"genmp/internal/rt"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// kernelResult is the sweep-kernel probe's outcome.
type kernelResult struct {
	fwdNs, bwdNs  sample // ns per line element, one value per round
	allocsPerCall float64
}

// kernelProbe times the solver's passes on a panel of nb lines of length n
// — the executors' batch width and chunk length — calling ForwardBatch/
// BackwardBatch when the solver implements them and the scalar Forward/
// Backward per line otherwise, exactly as the executors choose. Panel
// contents are diagonally dominant and drawn from rng. Each round restores
// the panel, then times one forward and one backward call; restoring is
// outside the timed calls.
func kernelProbe(s sweep.Solver, n, nb int, rng *rand.Rand, budget time.Duration) (kernelResult, error) {
	nv := s.NumVecs()
	// Element k of line b at [k*nb+b] (the batched SoA panel) or [b*n+k]
	// (one contiguous slice per line, for the scalar passes).
	bs, batched := s.(sweep.BatchSolver)
	at := func(k, b int) int {
		if batched {
			return k*nb + b
		}
		return b*n + k
	}
	pristine := make([][]float64, nv)
	work := make([][]float64, nv)
	for v := range pristine {
		reach, kind := vecRole(s, v)
		pristine[v] = make([]float64, n*nb)
		work[v] = make([]float64, n*nb)
		for b := 0; b < nb; b++ {
			for k := 0; k < n; k++ {
				val := roleValue(kind, rng.Float64())
				if (reach < 0 && k < -reach) || (reach > 0 && k >= n-reach) {
					val = 0
				}
				pristine[v][at(k, b)] = val
			}
		}
	}
	fc, bc := s.ForwardCarryLen(), s.BackwardCarryLen()
	fOut := make([]float64, nb*fc)
	bOut := make([]float64, nb*bc)
	views := make([][]float64, nv)
	pass := func(backward bool) {
		if batched {
			if backward {
				bs.BackwardBatch(work, nb, nil, bOut)
			} else {
				bs.ForwardBatch(work, nb, nil, fOut)
			}
			return
		}
		for b := 0; b < nb; b++ {
			for v := range views {
				views[v] = work[v][b*n : (b+1)*n]
			}
			if backward {
				s.Backward(views, nil, bOut[b*bc:(b+1)*bc])
			} else {
				s.Forward(views, nil, fOut[b*fc:(b+1)*fc])
			}
		}
	}
	restore := func() {
		for v := range work {
			copy(work[v], pristine[v])
		}
	}
	var res kernelResult
	callsPerRound := 2
	if !batched {
		callsPerRound = 2 * nb
	}
	elems := float64(n * nb)
	deadline := time.Now().Add(budget)
	for r := 0; r < minReps || time.Now().Before(deadline); r++ {
		restore()
		t0 := time.Now()
		pass(false)
		t1 := time.Now()
		pass(true)
		t2 := time.Now()
		res.fwdNs.add(float64(t1.Sub(t0).Nanoseconds()) / elems)
		res.bwdNs.add(float64(t2.Sub(t1).Nanoseconds()) / elems)
	}
	sol := work[nv-1]
	for _, x := range sol {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return res, fmt.Errorf("kernel probe: %s produced a non-finite solution", s.Name())
		}
	}
	if batched {
		// The batched passes must reproduce the scalar passes bit for bit.
		batchedSol := append([]float64(nil), sol...)
		for b := 0; b < nb; b++ {
			line := make([][]float64, nv)
			for v := range line {
				line[v] = make([]float64, n)
				for k := 0; k < n; k++ {
					line[v][k] = pristine[v][k*nb+b]
				}
			}
			s.Forward(line, nil, make([]float64, fc))
			s.Backward(line, nil, make([]float64, bc))
			for k := 0; k < n; k++ {
				if math.Float64bits(line[nv-1][k]) != math.Float64bits(batchedSol[k*nb+b]) {
					return res, fmt.Errorf("kernel probe: %s batched line %d element %d differs from the scalar pass", s.Name(), b, k)
				}
			}
		}
	}

	const allocRounds = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < allocRounds; r++ {
		restore()
		pass(false)
		pass(true)
	}
	runtime.ReadMemStats(&m1)
	res.allocsPerCall = float64(m1.Mallocs-m0.Mallocs) / float64(allocRounds*callsPerRound)
	return res, nil
}

// gridProbe times GatherLines and ScatterLines over every line of a grid of
// the given shape along each dimension, nb lines per panel, and returns
// GB/s samples (bytes of line data moved per second, one value per pass).
// The grid's contents come from rng; a gather followed by a scatter must
// leave them unchanged.
func gridProbe(shape []int, nb int, rng *rand.Rand, budget time.Duration) (gather, scatter sample, err error) {
	g := grid.New(shape...)
	data := g.Data()
	for i := range data {
		data[i] = rng.Float64()
	}
	orig := append([]float64(nil), data...)
	arena := make([]float64, len(data))
	lines := make([][]grid.Line, len(shape))
	for dim := range shape {
		lines[dim] = g.AppendLines(g.Bounds(), dim, nil)
	}
	bytes := float64(8 * len(data) * len(shape))
	deadline := time.Now().Add(budget)
	for r := 0; r < minReps || time.Now().Before(deadline); r++ {
		var tg, ts time.Duration
		for dim := range shape {
			ls := lines[dim]
			n := shape[dim]
			t0 := time.Now()
			for b0 := 0; b0 < len(ls); b0 += nb {
				b1 := min(b0+nb, len(ls))
				g.GatherLines(ls[b0:b1], arena[b0*n:b1*n])
			}
			t1 := time.Now()
			for b0 := 0; b0 < len(ls); b0 += nb {
				b1 := min(b0+nb, len(ls))
				g.ScatterLines(ls[b0:b1], arena[b0*n:b1*n])
			}
			t2 := time.Now()
			tg += t1.Sub(t0)
			ts += t2.Sub(t1)
		}
		gather.add(bytes / float64(tg.Nanoseconds()))
		scatter.add(bytes / float64(ts.Nanoseconds()))
	}
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(orig[i]) {
			return gather, scatter, fmt.Errorf("grid probe: element %d changed by a gather/scatter round trip", i)
		}
	}
	return gather, scatter, nil
}

// copyProbe times copy() between the halves of one array of the given size
// and returns GB/s samples (bytes copied per second). The memory is given
// back to the OS afterwards.
func copyProbe(size int, budget time.Duration) sample {
	buf := make([]byte, size)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = byte(i >> 12)
	}
	half := size / 2
	copy(buf[half:], buf[:half])
	var out sample
	deadline := time.Now().Add(budget)
	for r := 0; r < minReps || time.Now().Before(deadline); r++ {
		t0 := time.Now()
		copy(buf[half:], buf[:half])
		out.add(float64(half) / float64(time.Since(t0).Nanoseconds()))
	}
	buf = nil
	debug.FreeOSMemory()
	return out
}

// rtIters is the operation count of each transport probe.
const rtIters = 4000

// rtResult holds the transport probe samples, in seconds per operation.
type rtResult struct {
	launch, pingpong, isendWait, barrier, allreduce sample
}

// rtProbe measures the rt transport at p=2: an empty Machine.Run, a Send/
// Recv ping-pong with a payload of payloadLen values (one-way time, half a
// round trip), an Isend/Irecv/Wait exchange, Barrier and a one-value
// AllReduce. Rank 0 times each operation; rtIters operations per kind.
func rtProbe(payloadLen int) (rtResult, error) {
	var res rtResult
	m := rt.NewMachine(2)
	for i := 0; i < rtIters/8+1; i++ {
		t0 := time.Now()
		if _, err := m.Run(func(*rt.Rank) {}); err != nil {
			return res, fmt.Errorf("rt probe: launch: %w", err)
		}
		res.launch.addDur(time.Since(t0))
	}
	const tag = 1
	_, err := m.Run(func(r *rt.Rank) {
		peer := 1 - r.ID
		var mine []float64
		if r.ID == 0 {
			mine = r.GetPayload(payloadLen)
		}
		for i := 0; i < rtIters; i++ {
			t0 := time.Now()
			if r.ID == 0 {
				r.Send(peer, tag, xport.Msg{Payload: mine})
				mine = r.Recv(peer, tag).Payload
				res.pingpong.addDur(time.Since(t0) / 2)
			} else {
				mine = r.Recv(peer, tag).Payload
				r.Send(peer, tag, xport.Msg{Payload: mine})
			}
		}
		if r.ID == 0 {
			r.PutPayload(mine)
		}
		r.Barrier()
		mine = r.GetPayload(payloadLen)
		for i := 0; i < rtIters; i++ {
			t0 := time.Now()
			rq := r.Irecv(peer, tag)
			sq := r.Isend(peer, tag, xport.Msg{Payload: mine})
			sq.Wait()
			mine = rq.Wait().Payload
			if r.ID == 0 {
				res.isendWait.addDur(time.Since(t0))
			}
		}
		r.PutPayload(mine)
		for i := 0; i < rtIters; i++ {
			t0 := time.Now()
			r.Barrier()
			if r.ID == 0 {
				res.barrier.addDur(time.Since(t0))
			}
		}
		for i := 0; i < rtIters; i++ {
			t0 := time.Now()
			got := r.AllReduce([]float64{float64(r.ID + 1)}, func(a, b float64) float64 { return a + b })
			if r.ID == 0 {
				res.allreduce.addDur(time.Since(t0))
			}
			if len(got) != 1 || got[0] != 3 {
				panic(fmt.Sprintf("AllReduce returned %v, want [3]", got))
			}
		}
	})
	if err != nil {
		return res, fmt.Errorf("rt probe: %w", err)
	}
	if len(res.pingpong) == 0 {
		return res, fmt.Errorf("rt probe: no samples")
	}
	return res, nil
}
