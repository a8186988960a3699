package rt

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"genmp/internal/xport"
)

// Messages on one (src, dst, tag) channel arrive in send order, and
// distinct tags are independent channels.
func TestFIFOAndTagIsolation(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		const n = 8
		if r.ID == 0 {
			for k := 0; k < n; k++ {
				r.Send(1, 7, xport.Msg{Payload: []float64{float64(k)}})
			}
			r.Send(1, 9, xport.Msg{Payload: []float64{100}})
		} else {
			q9 := r.Irecv(0, 9)
			for k := 0; k < n; k++ {
				if got := r.Recv(0, 7).Payload[0]; got != float64(k) {
					panic("FIFO order violated")
				}
			}
			if q9.Wait().Payload[0] != 100 {
				panic("tag channels crossed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Payloads hand off zero-copy: the receiver observes the very slice the
// sender built (same backing array).
func TestZeroCopyHandoff(t *testing.T) {
	m := NewMachine(2)
	buf := make([]float64, 4)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			buf[0] = 42
			r.Send(1, 0, xport.Msg{Payload: buf})
		} else {
			got := r.Recv(0, 0).Payload
			if &got[0] != &buf[0] {
				panic("payload was copied")
			}
			if got[0] != 42 {
				panic("payload content lost")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Isend is eager and WaitAll retires mixed requests; Irecv preposts match
// in Wait order.
func TestNonblockingDiscipline(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			var reqs []xport.Request
			for k := 0; k < 4; k++ {
				reqs = append(reqs, r.Isend(1, 3, xport.Msg{Payload: []float64{float64(k)}}))
			}
			r.WaitAll(reqs...)
		} else {
			var reqs []xport.Request
			for k := 0; k < 4; k++ {
				reqs = append(reqs, r.Irecv(0, 3))
			}
			for k, q := range reqs {
				if got := q.Wait().Payload[0]; got != float64(k) {
					panic("prepost order violated")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// AllReduce combines in rank order deterministically and returns the same
// vector to all ranks; Barrier synchronizes repeatedly (generation reuse).
func TestBarrierAndAllReduce(t *testing.T) {
	const p = 5
	m := NewMachine(p)
	_, err := m.Run(func(r *Rank) {
		for round := 0; round < 10; round++ {
			out := r.AllReduce([]float64{float64(r.ID), 1}, func(a, b float64) float64 { return a + b })
			if out[0] != float64(p*(p-1)/2) || out[1] != p {
				panic("wrong reduction")
			}
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Collective return shapes match the simulator's contracts.
func TestCollectiveShapes(t *testing.T) {
	const p = 4
	m := NewMachine(p)
	_, err := m.Run(func(r *Rank) {
		q := r.ID
		// AllToAll: out[src] holds src's contribution for q.
		data := make([][]float64, p)
		sizes := make([]int, p)
		for i := 0; i < p; i++ {
			data[i] = []float64{float64(100*q + i)}
			sizes[i] = 8
		}
		out := r.AllToAll(sizes, data, xport.CollOpts{})
		for src := 0; src < p; src++ {
			if out[src][0] != float64(100*src+q) {
				panic("AllToAll misrouted")
			}
		}
		// AllGather: out[src] holds src's block everywhere.
		ag := r.AllGather(8, []float64{float64(q)}, xport.CollOpts{})
		for src := 0; src < p; src++ {
			if ag[src][0] != float64(src) {
				panic("AllGather misrouted")
			}
		}
		// GatherTo: root-indexed result, nil elsewhere.
		gt := r.GatherTo(0, 8, []float64{float64(q)}, xport.CollOpts{})
		if q == 0 {
			for src := 0; src < p; src++ {
				if gt[src][0] != float64(src) {
					panic("GatherTo misrouted")
				}
			}
		} else if gt != nil {
			panic("GatherTo leaked a result to a non-root")
		}
		// Bcast: every rank returns root's block.
		var seed []float64
		if q == 2 {
			seed = []float64{7, 8}
		}
		bc := r.Bcast(2, 16, seed, xport.CollOpts{})
		if bc[0] != 7 || bc[1] != 8 {
			panic("Bcast lost the block")
		}
		// Exchange: ring shift.
		got := r.Exchange((q+1)%p, (q+p-1)%p, collTags.Tag(15), xport.Msg{Payload: []float64{float64(q)}}, 0)
		if got.Payload[0] != float64((q+p-1)%p) {
			panic("Exchange misrouted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A rank panic aborts the run: blocked peers are woken and the joined
// error names the failing rank.
func TestPanicAbortsBlockedPeers(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			panic("boom")
		}
		r.Recv(0, 0) // would block forever without abort propagation
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0: boom") {
		t.Fatalf("expected rank 0 panic in error, got %v", err)
	}
}

// A receive whose sender has exited is a deadlock, not a hang.
func TestDeadlockDetection(t *testing.T) {
	m := NewMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 1 {
			r.BeginPhase("solve")
			r.Recv(0, 5)
		}
		// Rank 0 exits immediately.
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "[phase solve]") {
		t.Fatalf("expected deadlock error with phase, got %v", err)
	}
}

// Result carries wall-clock time and per-rank traffic.
func TestResultTraffic(t *testing.T) {
	m := NewMachine(2)
	res, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 1000})
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Errorf("wall clock %v, want > 0", res.Wall)
	}
	if res.TotalMessages() != 1 || res.TotalBytes() != 1000 {
		t.Errorf("traffic = %d msgs / %d bytes, want 1 / 1000", res.TotalMessages(), res.TotalBytes())
	}
	if res.Ranks[1].MsgsRecvd != 1 || res.Ranks[1].BytesRecvd != 1000 {
		t.Errorf("rank 1 recv stats = %+v", res.Ranks[1])
	}
}

// The payload pool recycles across ranks (machine-wide), and Machines are
// reusable across Runs.
func TestPoolAndMachineReuse(t *testing.T) {
	m := NewMachine(2)
	for run := 0; run < 3; run++ {
		_, err := m.Run(func(r *Rank) {
			if r.ID == 0 {
				buf := r.GetPayload(64)
				buf[0] = 1
				r.Send(1, 0, xport.Msg{Payload: buf})
			} else {
				got := r.Recv(0, 0)
				r.PutPayload(got.Payload)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := m.pool.get(64); cap(got) < 64 {
		t.Errorf("pool did not retain a recycled buffer")
	}
}

// boxCounters reads a box's receive counters under its lock, so a peer
// rank may watch them while the box's own rank is receiving.
func boxCounters(b *rankBox) (polls, parks int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.polls, b.parks
}

// waitFor yields until cond holds.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// needsPolling skips a test of the polling path where it cannot run: a
// machine of p ranks polls only when p ≤ GOMAXPROCS, and a poll can only
// see a message from a rank that runs on another CPU.
func needsPolling(t *testing.T, p int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < p || runtime.NumCPU() < p {
		t.Skipf("polling needs %d CPUs (GOMAXPROCS %d, NumCPU %d)", p, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
}

// recvBox runs a two-rank machine in which rank 1 receives rounds messages
// on one channel and rank 0 sends message k once ready(box, k) holds for
// rank 1's box. It returns rank 1's box for its counters.
func recvBox(t *testing.T, rounds int, ready func(b *rankBox, k int) bool) *rankBox {
	t.Helper()
	m := NewMachine(2)
	var box *rankBox
	started := make(chan struct{})
	_, err := m.Run(func(r *Rank) {
		if r.ID == 1 {
			box = &r.mb.boxes[1]
			close(started)
			for k := 0; k < rounds; k++ {
				if got := r.Recv(0, 1).Payload[0]; got != float64(k) {
					panic(fmt.Sprintf("message %d carried %v", k, got))
				}
			}
			return
		}
		<-started
		for k := 0; k < rounds; k++ {
			waitFor(func() bool { return ready(box, k) })
			r.Send(1, 1, xport.Msg{Payload: []float64{float64(k)}})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return box
}

// A message sent while the receiver polls is received by the poll, without
// parking. Whether one message beats the window depends on the host (a
// descheduled CPU can outlast it), so each of many messages is sent once
// the receiver has opened a new poll, runs repeat until one receive has
// not parked, and only a host that never lets a poll win fails.
func TestRecvPollReceivesMessage(t *testing.T) {
	needsPolling(t, 2)
	const rounds, attempts = 50, 20
	for a := 0; a < attempts; a++ {
		box := recvBox(t, rounds, func(b *rankBox, k int) bool {
			polls, _ := boxCounters(b)
			return polls > k
		})
		polls, parks := boxCounters(box)
		if polls != rounds {
			t.Fatalf("receiver opened %d polls in %d receives, want one each", polls, rounds)
		}
		if parks < rounds {
			return
		}
	}
	t.Errorf("all %d receives parked: no poll received its message", attempts*rounds)
}

// A message sent after the receiver parked — past the poll window, or at
// once on a machine that does not poll — is received through the park.
func TestRecvParkReceivesMessage(t *testing.T) {
	const rounds = 3
	box := recvBox(t, rounds, func(b *rankBox, k int) bool {
		_, parks := boxCounters(b)
		return parks > k
	})
	if _, parks := boxCounters(box); parks != rounds {
		t.Errorf("%d receives parked %d times, want once each", rounds, parks)
	}
}

// A machine with more ranks than GOMAXPROCS never polls: its receives park
// at once.
func TestOversubscribedMachineNeverPolls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := NewMachine(2)
	var boxes []rankBox
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			boxes = r.mb.boxes
		}
		for k := 0; k < 20; k++ {
			if r.ID == 0 {
				r.Send(1, 0, xport.Msg{Bytes: 8})
				r.Recv(1, 0)
			} else {
				r.Recv(0, 0)
				r.Send(0, 0, xport.Msg{Bytes: 8})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for q := range boxes {
		if polls, _ := boxCounters(&boxes[q]); polls != 0 {
			t.Errorf("rank %d polled %d times on an oversubscribed machine", q, polls)
		}
	}
}

// Deadlock detection and abort reach a receiver that is polling, and the
// run ends promptly.
func TestPollingWaiterSeesExitAndAbort(t *testing.T) {
	needsPolling(t, 2)
	for _, c := range []struct {
		name string
		quit func()
		want string
	}{
		{"exit", func() {}, "deadlock"},
		{"panic", func() { panic("boom") }, "rank 0: boom"},
	} {
		m := NewMachine(2)
		started := make(chan *rankBox)
		t0 := time.Now()
		_, err := m.Run(func(r *Rank) {
			if r.ID == 1 {
				started <- &r.mb.boxes[1]
				r.Recv(0, 5)
				return
			}
			box := <-started
			waitFor(func() bool { polls, _ := boxCounters(box); return polls > 0 })
			c.quit()
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if d := time.Since(t0); d > 5*time.Second {
			t.Errorf("%s: run took %v to fail", c.name, d)
		}
	}
}

// A channel that drains keeps its queue: the steady state of put and get
// allocates nothing.
func TestMailboxSteadyStateAllocatesNothing(t *testing.T) {
	mb := newMailbox(2)
	m := xport.Msg{Payload: make([]float64, 4)}
	allocs := testing.AllocsPerRun(200, func() {
		mb.put(0, 1, 3, m)
		mb.put(0, 1, 3, m)
		mb.get(0, 1, 3, "")
		mb.get(0, 1, 3, "")
	})
	if allocs != 0 {
		t.Errorf("put/get allocate %v times a round, want 0", allocs)
	}
}
