package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"genmp/internal/rt"
	"genmp/internal/sweep"
)

// config is one benchmark run's settings.
type config struct {
	seed   int64
	budget time.Duration // measured time of the run
	traced bool
	outDir string // shipped plans and the span file
	llc    llcInfo
}

// minReps is the least number of repetitions of every timed loop, so that a
// tiny budget still yields medians.
const minReps = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's state: the workload set up at p=2 and p=1, the
// simulator references, and the tally of checked runs.
type bench struct {
	cfg      config
	w        workload
	rng      *rand.Rand
	out      io.Writer
	tr       *tracer
	par, ser *instance
	parRef   reference
	serRef   reference
	simSpan  float64 // virtual makespan of the p=2 solve
	setups   []setupTimes

	attempted, failed int
	firstErr          error
	metrics           map[string]metric
	samples           map[string]int
}

// record counts one checked run.
func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setSample reports a sample's median and records its size.
func (b *bench) setSample(name string, s sample, scale float64, unit string) {
	b.set(name, s.median()*scale, unit)
	b.samples[name] = len(s)
}

// runBenchmark sets the workload up, measures it, and returns the result.
// An error means the run could not be carried out; failed checks are
// reported in the result instead.
func runBenchmark(w workload, cfg config, out io.Writer) (result, error) {
	b := &bench{
		cfg: cfg, w: w, rng: rand.New(rand.NewSource(cfg.seed)), out: out,
		metrics: map[string]metric{}, samples: map[string]int{},
	}
	if cfg.traced {
		b.tr = newTracer(w.name)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("output directory: %w", err)
	}
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	var err error
	if cfg.traced {
		err = b.measureLayers()
	} else {
		err = b.measureEndToEnd()
	}
	if err != nil {
		return result{}, err
	}
	// A metric without samples (every run of its kind failed) is not
	// finite; it fails the run and is printed as 0.
	for name, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.record(fmt.Errorf("metric %s is not finite", name))
			b.set(name, 0, m.Unit)
		}
	}
	meta, err := json.Marshal(b.meta())
	if err != nil {
		return result{}, fmt.Errorf("encode run metadata: %w", err)
	}
	fmt.Fprintf(out, "meta %s\n", meta)
	if b.firstErr != nil {
		fmt.Fprintf(out, "first failure of %d: %v\n", b.failed, b.firstErr)
	}
	return result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	}, nil
}

// prepare sets the workload up at p=2 and at p=1 and computes both
// simulator references, outside every timed region.
func (b *bench) prepare() error {
	var err error
	if b.par, err = b.timedSetup(-1); err != nil {
		return err
	}
	if b.ser, _, err = setup(b.w, 1, b.cfg.outDir, nil, 0); err != nil {
		return err
	}
	id := b.tr.begin("sim.reference (virtual)", 0, 0, -1)
	defer b.tr.end(id)
	for _, in := range []*instance{b.par, b.ser} {
		g, res, err := in.simulate()
		if err != nil {
			return fmt.Errorf("sim reference at p=%d: %w", in.p, err)
		}
		ref := reference{field: g, msgs: res.TotalMessages(), bytes: res.TotalBytes()}
		if in.p == parallelP {
			b.parRef, b.simSpan = ref, res.Makespan
		} else {
			b.serRef = ref
		}
	}
	return nil
}

// timedSetup runs one p=2 set-up and records its layer times. The measuring
// loops call it once per repetition, so the set-up samples are spread over
// the whole run like the solve samples.
func (b *bench) timedSetup(rep int) (*instance, error) {
	in, st, err := setup(b.w, parallelP, b.cfg.outDir, b.tr, rep)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, st)
	return in, nil
}

// runStats is one timed driver solve.
type runStats struct {
	wall             time.Duration
	allocBytes       uint64
	mallocs          uint64
	gcCycles         uint32
	gcPause          time.Duration
	messages, nbytes int
}

// timedSolve runs one driver solve from a collected heap, times the call,
// takes the allocation and GC deltas around it, and checks the output.
func (b *bench) timedSolve(in *instance, m *rt.Machine, ref reference, rep int) (runStats, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := b.tr.begin("dmem.solve", 0, rep, -1)
	t0 := time.Now()
	g, res, err := in.solve(m)
	wall := time.Since(t0)
	b.tr.end(id)
	runtime.ReadMemStats(&m1)
	st := runStats{
		wall:       wall,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		messages:   res.TotalMessages(),
		nbytes:     res.TotalBytes(),
	}
	if err == nil {
		err = ref.check(g, st.messages, st.nbytes)
	}
	if err != nil {
		err = fmt.Errorf("%s p=%d solve: %w", in.w.name, in.p, err)
	}
	b.record(err)
	return st, err
}

// measureEndToEnd alternates p=2 and p=1 solves, in an order drawn from the
// seed, until the budget is spent, and reports the end-to-end metrics.
func (b *bench) measureEndToEnd() error {
	m2, m1 := rt.NewMachine(parallelP), rt.NewMachine(1)
	// One warm-up solve each, not sampled; timedSolve still checks it and
	// counts a failure.
	_, _ = b.timedSolve(b.par, m2, b.parRef, -1)
	_, _ = b.timedSolve(b.ser, m1, b.serRef, -1)

	var wall, serial, speedup, alloc, mallocs sample
	deadline := time.Now().Add(b.cfg.budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		if _, err := b.timedSetup(rep); err != nil {
			return err
		}
		// The pair's order is drawn from the seed; its two solves run back
		// to back, so their ratio sees the same host conditions.
		var par, ser time.Duration
		parFirst := b.rng.Intn(2) == 0
		for k := 0; k < 2; k++ {
			if (k == 0) == parFirst {
				if st, err := b.timedSolve(b.par, m2, b.parRef, rep); err == nil {
					par = st.wall
					wall.addDur(st.wall)
					alloc.add(float64(st.allocBytes))
					mallocs.add(float64(st.mallocs))
				}
			} else if st, err := b.timedSolve(b.ser, m1, b.serRef, rep); err == nil {
				ser = st.wall
				serial.addDur(st.wall)
			}
		}
		if par > 0 && ser > 0 {
			speedup.add(ser.Seconds() / par.Seconds())
		}
	}
	var setup sample
	for _, st := range b.setups {
		setup.addDur(st.total())
	}
	w := b.w
	b.setSample("wall_s", wall, 1, "s")
	b.setSample("serial_wall_s", serial, 1, "s")
	b.setSample("speedup", speedup, 1, "x")
	b.set("cell_steps_per_s", float64(w.eta*w.eta*w.eta*w.steps)/wall.median(), "1/s")
	b.setSample("setup_s", setup, 1, "s")
	b.setSample("alloc_bytes_per_run", alloc, 1, "B")
	b.setSample("allocs_per_run", mallocs, 1, "count")
	b.set("success_frac", 1-float64(b.failed)/float64(max(1, b.attempted)), "frac")

	fmt.Fprintf(b.out, "%s end to end (rt, wall; p=%d vs p=1, η=%d³, %d steps, overlap %v)\n",
		w.name, parallelP, w.eta, w.steps, w.overlap)
	fmt.Fprintf(b.out, "  (every metric is the median; speedup is the median of the per-pair p=1/p=2 ratios)\n")
	fmt.Fprintf(b.out, "  wall_s         %s\n", wall.summary(1e3, "ms"))
	fmt.Fprintf(b.out, "  serial_wall_s  %s\n", serial.summary(1e3, "ms"))
	fmt.Fprintf(b.out, "  speedup        %s\n", speedup.summary(1, "x"))
	fmt.Fprintf(b.out, "  setup_s        %s\n", setup.summary(1e3, "ms"))
	fmt.Fprintf(b.out, "  alloc/run      %s\n", alloc.summary(1e-6, "MB"))
	fmt.Fprintf(b.out, "  allocs/run     %s\n", mallocs.summary(1, ""))
	fmt.Fprintf(b.out, "  failed_frac    %d/%d\n", b.failed, b.attempted)
	return nil
}

// measureLayers is the traced run: it takes the solve apart into the
// per-layer metrics, spending the budget on interleaved driver and probe
// solves first and then on the kernel, grid, transport and copy probes.
func (b *bench) measureLayers() error {
	w, in := b.w, b.par
	cfg := b.cfg
	start := time.Now()

	// Interleaved set-ups, driver solves (untraced inside), traced probe
	// solves and untraced probe solves.
	pb, err := newProbe(in)
	if err != nil {
		return err
	}
	m2 := rt.NewMachine(parallelP)
	var wall, probeTraced, probePlain, gcCycles, gcPause sample
	var dims [3]sample
	var waitS, busyS, haloS, gatherS sample
	loopDeadline := time.Now().Add(cfg.budget * 45 / 100)
	for rep := 0; rep < minReps || time.Now().Before(loopDeadline); rep++ {
		if _, err := b.timedSetup(rep); err != nil {
			return err
		}
		for _, k := range b.rng.Perm(3) {
			switch k {
			case 0:
				st, err := b.timedSolve(in, m2, b.parRef, rep)
				if err == nil {
					wall.addDur(st.wall)
					gcCycles.add(float64(st.gcCycles))
					gcPause.addDur(st.gcPause)
				}
			case 1:
				runtime.GC()
				d, times, err := pb.run(m2, b.tr, rep)
				b.record(err)
				if err != nil {
					continue
				}
				probeTraced.addDur(d)
				var sw [3]time.Duration
				var wait, halo, gather time.Duration
				for _, pt := range times {
					for dim := range sw {
						sw[dim] += pt.sweep[dim]
					}
					wait += pt.wait
					halo += pt.halo
					gather = max(gather, pt.gather)
				}
				p := time.Duration(len(times))
				for dim := range sw {
					dims[dim].addDur(sw[dim] / p)
				}
				waitS.addDur(wait / p)
				busyS.addDur((sw[0] + sw[1] + sw[2] - wait) / p)
				haloS.addDur(halo / p)
				gatherS.addDur(gather)
			case 2:
				runtime.GC()
				d, _, err := pb.run(m2, nil, rep)
				b.record(err)
				if err == nil {
					probePlain.addDur(d)
				}
			}
		}
	}
	// Set-up layers.
	var search, mapping, compile, ship sample
	for _, st := range b.setups {
		search.addDur(st.search)
		mapping.addDur(st.mapping)
		compile.addDur(st.compile)
		ship.addDur(st.ship)
	}
	b.setSample("partition.search_s", search, 1, "s")
	b.set("partition.candidates", float64(in.candidates), "count")
	b.setSample("core.mapping_s", mapping, 1, "s")
	b.setSample("plan.compile_s", compile, 1, "s")
	b.setSample("plan.ship_s", ship, 1, "s")

	// Exact schedule guards.
	phases, carryBytes := planCounts(in.plan)
	b.set("plan.phases", float64(phases), "count")
	b.set("plan.carry_bytes", float64(carryBytes), "B")
	b.set("rt.messages", float64(b.parRef.msgs), "count")
	b.set("rt.bytes", float64(b.parRef.bytes), "B")
	b.set("sim.makespan_s", b.simSpan, "virtual_s")
	predDim, predTotal := in.predicted()
	b.set("cost.predicted_s", predTotal, "virtual_s")

	sweepTotal := dims[0].median() + dims[1].median() + dims[2].median()
	for dim := range dims {
		b.setSample(spanSweep[dim]+"_s", dims[dim], 1, "s")
	}
	b.setSample("dmem.sweep_wait_s", waitS, 1, "s")
	b.setSample("dmem.sweep_busy_s", busyS, 1, "s")
	b.set("dmem.wait_frac", waitS.median()/sweepTotal, "frac")
	b.setSample("dmem.halo_s", haloS, 1, "s")
	b.setSample("dmem.gather_root_s", gatherS, 1, "s")
	b.set("dmem.driver_other_s", wall.median()-sweepTotal-haloS.median()-gatherS.median(), "s")
	b.set("go.gc_cycles_per_run", gcCycles.mean(), "count")
	b.set("go.gc_pause_s_per_run", gcPause.mean(), "s")
	b.set("model.wall_over_sim", wall.median()/b.simSpan, "ratio")
	b.set("trace.overhead_frac", probeTraced.median()/probePlain.median()-1, "frac")
	b.samples["wall_s"] = len(wall)
	b.samples["probe_traced"] = len(probeTraced)
	b.samples["probe_untraced"] = len(probePlain)

	// Kernel probe: the workload's solver at its own chunk length and the
	// executors' batch width.
	n, nb := in.chunk()
	id := b.tr.begin("sweep.kernel_probe", 0, 0, -1)
	kr, err := kernelProbe(in.solver, n, nb, b.rng, cfg.budget*20/100)
	b.tr.end(id)
	b.record(err)
	if err != nil {
		return err
	}
	flops := in.solver.FlopsPerElement()
	b.setSample("sweep.forward_ns_per_elem", kr.fwdNs, 1, "ns")
	b.setSample("sweep.backward_ns_per_elem", kr.bwdNs, 1, "ns")
	b.set("sweep.gflops", flops/(kr.fwdNs.median()+kr.bwdNs.median()), "GFLOP/s")
	b.set("sweep.flops_per_elem", flops, "count")
	b.set("sweep.bytes_per_elem", bytesPerElem(in.solver), "B")
	b.set("sweep.allocs_per_call", kr.allocsPerCall, "count")

	// Grid probe: one rank's tile shape.
	shape := in.tileShape()
	id = b.tr.begin("grid.gather_scatter_probe", 0, 0, -1)
	gather, scatter, err := gridProbe(shape, nb, b.rng, cfg.budget*15/100)
	b.tr.end(id)
	b.record(err)
	if err != nil {
		return err
	}
	b.setSample("grid.gather_gbps", gather, 1, "GB/s")
	b.setSample("grid.scatter_gbps", scatter, 1, "GB/s")

	// Transport probe, with the plan's largest carry as the payload.
	id = b.tr.begin("rt.transport_probe", 0, 0, -1)
	rr, err := rtProbe(in.maxCarry())
	b.tr.end(id)
	b.record(err)
	if err != nil {
		return err
	}
	b.setSample("rt.launch_us", rr.launch, 1e6, "us")
	b.setSample("rt.pingpong_us", rr.pingpong, 1e6, "us")
	b.setSample("rt.isend_wait_us", rr.isendWait, 1e6, "us")
	b.setSample("rt.barrier_us", rr.barrier, 1e6, "us")
	b.setSample("rt.allreduce_us", rr.allreduce, 1e6, "us")

	// Copy baseline over an array of 4×LLC, with what is left of the
	// budget, at most a tenth of it (and at least minReps copies).
	copyLen := 4 * cfg.llc.bytes
	id = b.tr.begin("grid.copy_baseline", 0, 0, -1)
	cp := copyProbe(copyLen, min(cfg.budget-time.Since(start), cfg.budget/10))
	b.tr.end(id)
	b.setSample("grid.copy_gbps", cp, 1, "GB/s")

	// Report: self time per layer span and the model-vs-hardware columns.
	fmt.Fprintf(b.out, "%s layers (traced; p=%d, η=%d³, %d steps, overlap %v)\n", w.name, parallelP, w.eta, w.steps, w.overlap)
	printSelfTimes(b.out, b.tr.selfTimes())
	fmt.Fprintf(b.out, "model vs hardware: predicted (cost, virtual s) | simulated (sim, virtual s) | measured (rt, wall s)\n")
	for dim := range dims {
		fmt.Fprintf(b.out, "  sweep dim %d        %12.6g | %12.6g | %12.6g\n",
			dim, predDim[dim], pb.simPhase[phaseSolve[dim]], dims[dim].median())
	}
	fmt.Fprintf(b.out, "  solve (sweeps only predicted) %12.6g | %12.6g | %12.6g\n",
		b.metrics["cost.predicted_s"].Value, b.simSpan, wall.median())
	fmt.Fprintf(b.out, "kernel %s: line length %d, batch %d, forward %s\n", in.solver.Name(), n, nb, kr.fwdNs.summary(1, "ns/elem"))
	fmt.Fprintf(b.out, "grid: tile %v (%d KiB), gather %s\n", shape, 8*prod(shape)>>10, gather.summary(1, "GB/s"))
	fmt.Fprintf(b.out, "      scatter %s\n", scatter.summary(1, "GB/s"))
	fmt.Fprintf(b.out, "copy baseline: array %d MiB (%d MiB copied per pass, LLC %d MiB from %s), %s\n",
		copyLen>>20, copyLen>>21, cfg.llc.bytes>>20, cfg.llc.source, cp.summary(1, "GB/s"))
	path := filepath.Join(cfg.outDir, "spans-"+w.name+".json")
	if err := b.tr.writeFile(path, b.meta()); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: %s (%d spans)\n", path, len(b.tr.spans))
	return nil
}

// chunk returns the line length and batch width of the solve's kernel
// calls: the chunk length of the first cut dimension's tiles and the
// executors' default batch width, capped by the lines of a tile.
func (in *instance) chunk() (n, nb int) {
	dim := 0
	for d, g := range in.plan.Gamma {
		if g > 1 {
			dim = d
			break
		}
	}
	t := in.plan.Pass(0, dim, false).Phases[0].Tiles[0]
	return t.ChunkLen, min(sweep.DefaultBatchLines, t.Lines)
}

// tileShape returns the extent of one tile.
func (in *instance) tileShape() []int {
	shape := make([]int, len(in.plan.Eta))
	for d, e := range in.plan.Eta {
		shape[d] = e / in.plan.Gamma[d]
	}
	return shape
}

// maxCarry returns the largest carry payload of the plan, in values.
func (in *instance) maxCarry() int {
	n := 1
	for _, passes := range in.plan.Passes {
		for _, pp := range passes {
			for _, ph := range pp.Phases {
				n = max(n, ph.SendBytes/8)
			}
		}
	}
	return n
}

func prod(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// bytesPerElem is the computed memory traffic of one forward plus one
// backward pass per line element: 8 bytes per vector each pass reads and
// per vector it writes.
func bytesPerElem(s sweep.Solver) float64 {
	n := 0
	for _, backward := range []bool{false, true} {
		touched, written := sweep.PassMasks(s, backward)
		for v := 0; v < s.NumVecs(); v++ {
			if sweep.MaskOn(touched, v) {
				n++
			}
			if sweep.MaskOn(written, v) {
				n++
			}
		}
	}
	return float64(8 * n)
}
