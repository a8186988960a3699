// The shared-memory mailbox: per-(src,dst,tag) FIFO queues under one
// mutex+cond pair per destination rank. Sends append and signal — they
// never block, the unbounded-queue analogue of the simulator's eager
// injection — and receives wait until their channel is non-empty: first
// by polling the box's event counter for a short fixed window, then by
// parking on the destination's cond. Payload slices move through the queue
// by reference: a message hand-off copies nothing.
package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"genmp/internal/xport"
)

// pollWindow bounds how long a receive that finds its channel empty polls
// before it parks. A hand-off to a polling receiver is a queue append seen
// within about a microsecond, while waking a parked goroutine whose thread
// has gone to sleep takes the scheduler and an OS futex wake, far longer.
// Most carries of a pipelined sweep arrive within this window, so polling
// saves that wake at each phase boundary; a longer wait still parks and
// costs at most the window of CPU time.
const pollWindow = 100 * time.Microsecond

// pollYieldEvery is how many polls of the event counter pass between two
// yields, each followed by a clock read. The yield lets a rank that was
// readied onto this CPU (its wake lands on the waker's run queue) run
// instead of waiting out the window behind the poller.
const pollYieldEvery = 64

// msgKey identifies one FIFO channel.
type msgKey struct {
	src, tag int
}

// rankBox is one destination rank's queue set.
type rankBox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey][]xport.Msg
	// seq counts the events that can end a wait on this box: a put, a
	// rank's exit and the abort. Receivers read it under mu, after finding
	// their channel empty, and poll it without; every bump follows the
	// event it announces, so a poll cannot miss one.
	seq atomic.Uint64
	// polls and parks count the box's poll windows and its waits on cond.
	// Only the box's own rank writes them, under mu.
	polls, parks int
}

// mailbox is the machine-wide message store plus liveness accounting for
// deadlock detection and abort propagation.
type mailbox struct {
	boxes []rankBox
	// poll is set when every rank can hold a CPU of its own (P ≤
	// GOMAXPROCS). An oversubscribed machine parks at once: a polling rank
	// would only keep the sender it waits for off the CPU.
	poll bool

	liveMu  sync.Mutex
	live    int  // rank goroutines still running
	aborted bool // a rank panicked; wake and fail all waiters
}

func newMailbox(p int) *mailbox {
	mb := &mailbox{boxes: make([]rankBox, p), live: p, poll: p <= runtime.GOMAXPROCS(0)}
	for i := range mb.boxes {
		mb.boxes[i].cond = sync.NewCond(&mb.boxes[i].mu)
		mb.boxes[i].queues = map[msgKey][]xport.Msg{}
	}
	return mb
}

// put appends m to the (src, dst, tag) channel and wakes dst, polling or
// parked. The bump comes after the unlock, so a poller that sees it finds
// the lock free.
func (mb *mailbox) put(src, dst, tag int, m xport.Msg) {
	b := &mb.boxes[dst]
	k := msgKey{src: src, tag: tag}
	b.mu.Lock()
	b.queues[k] = append(b.queues[k], m)
	b.mu.Unlock()
	b.seq.Add(1)
	b.cond.Broadcast()
}

// get blocks until the (src, dst, tag) channel is non-empty and pops its
// head. An empty channel is polled for up to pollWindow (when the machine
// polls at all) before the receive parks on the cond. It panics when the
// run aborted, or when every other rank has exited with the channel still
// empty — the real-thread analogue of the simulator's deadlock detection.
func (mb *mailbox) get(src, dst, tag int, phase string) xport.Msg {
	b := &mb.boxes[dst]
	k := msgKey{src: src, tag: tag}
	var pollStart time.Time // set by the poll's first clock read
	polled, pollDone := false, false
	b.mu.Lock()
	for {
		if q := b.queues[k]; len(q) > 0 {
			// Shift down rather than reslice, so a channel keeps its
			// backing array and a steady stream allocates nothing.
			m := q[0]
			n := copy(q, q[1:])
			q[n] = xport.Msg{}
			b.queues[k] = q[:n]
			b.mu.Unlock()
			return m
		}
		aborted, starved := mb.liveness()
		if aborted {
			b.mu.Unlock()
			panic("rt: run aborted by a peer rank's failure")
		}
		if starved {
			b.mu.Unlock()
			where := ""
			if phase != "" {
				where = fmt.Sprintf(" [phase %s]", phase)
			}
			panic(fmt.Sprintf("rt: deadlock: rank %d blocked in Recv(src=%d, tag=%d)%s with every other rank exited", dst, src, tag, where))
		}
		if mb.poll && !pollDone {
			if !polled {
				polled = true
				b.polls++
			}
			seq := b.seq.Load()
			b.mu.Unlock()
			pollDone = !pollSeq(&b.seq, seq, &pollStart)
			b.mu.Lock()
			continue
		}
		b.parks++
		b.cond.Wait()
	}
}

// pollSeq spins until seq moves past old and reports true, or reports
// false once the poll window has closed. The window opens at the first
// clock read, which *start keeps across calls; a hand-off that lands
// within the first pollYieldEvery polls reads no clock at all.
func pollSeq(seq *atomic.Uint64, old uint64, start *time.Time) bool {
	for i := 1; seq.Load() == old; i++ {
		if i%pollYieldEvery != 0 {
			continue
		}
		runtime.Gosched()
		now := time.Now()
		if start.IsZero() {
			*start = now
		} else if now.Sub(*start) >= pollWindow {
			return false
		}
	}
	return true
}

// liveness reports (aborted, starved): starved means this waiter is the
// only rank still running, so its message can never arrive.
func (mb *mailbox) liveness() (aborted, starved bool) {
	mb.liveMu.Lock()
	defer mb.liveMu.Unlock()
	return mb.aborted, mb.live <= 1
}

// exit marks one rank goroutine as finished and wakes all waiters (polling
// or parked) so starved receivers can detect the deadlock.
func (mb *mailbox) exit() {
	mb.liveMu.Lock()
	mb.live--
	mb.liveMu.Unlock()
	mb.wakeAll()
}

// abort marks the run failed and wakes every waiter.
func (mb *mailbox) abort() {
	mb.liveMu.Lock()
	mb.aborted = true
	mb.liveMu.Unlock()
	mb.wakeAll()
}

// wakeAll ends every poll and wakes every parked waiter. Bumping seq under
// the box lock orders it after any in-flight liveness check, so a waiter
// that checked before the change still sees seq move.
func (mb *mailbox) wakeAll() {
	for i := range mb.boxes {
		b := &mb.boxes[i]
		b.mu.Lock()
		b.seq.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// barrier is a reusable generation barrier with an elementwise reduction
// slot (AllReduce). The combine runs in ascending rank order regardless of
// arrival order, so floating-point results are deterministic.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	arrived int
	gen     int
	vals    [][]float64
	out     []float64
	exited  int
	aborted bool
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p, vals: make([][]float64, p)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// sync blocks until all live ranks arrive. With vals non-nil the arrivals'
// vectors are combined elementwise in rank order and the combined vector
// returned to every rank (callers must not mutate it).
func (b *barrier) sync(id int, vals []float64, combine func(x, y float64) float64) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic("rt: run aborted by a peer rank's failure")
	}
	gen := b.gen
	b.vals[id] = vals
	b.arrived++
	if b.arrived+b.exited >= b.p {
		if combine != nil {
			var out []float64
			for q := 0; q < b.p; q++ {
				v := b.vals[q]
				if v == nil {
					continue
				}
				if out == nil {
					out = append([]float64(nil), v...)
					continue
				}
				for i := range out {
					out[i] = combine(out[i], v[i])
				}
			}
			b.out = out
		} else {
			b.out = nil
		}
		for q := range b.vals {
			b.vals[q] = nil
		}
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen && !b.aborted {
			b.cond.Wait()
		}
		if b.aborted {
			panic("rt: run aborted by a peer rank's failure")
		}
	}
	return b.out
}

// exit removes a finished rank from the barrier population so stragglers
// in a sync (an unbalanced program) are released rather than hung; they
// will fail in the mailbox or produce a short-handed reduction, matching
// the simulator's abort-on-exit behavior closely enough for post-mortems.
func (b *barrier) exit() {
	b.mu.Lock()
	b.exited++
	if b.arrived > 0 && b.arrived+b.exited >= b.p {
		b.arrived = 0
		b.gen++
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// abort releases every waiter with a panic.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
