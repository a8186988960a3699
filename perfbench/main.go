// Command perfbench is the wall-clock benchmark of the real-parallel (rt)
// backend. It runs the strict SP, BT and ADI drivers on rt at p=2 and at
// p=1 (the serial baseline), checks every solve bit for bit against the
// virtual-time simulator, and prints the end-to-end metrics; with --trace 1
// it instead takes the solve apart layer by layer (set-up, plan, kernels,
// gather/scatter, transport, strict executor, Go runtime) and writes the
// recorded spans to a file.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload sp-64 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when a
// check failed or the run could not be carried out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one benchmark and prints its result;
// it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the interleave order and the probe panels")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil {
		// Oversubscribed ranks would time the scheduler, not the program.
		if cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); cpus < parallelP {
			err = fmt.Errorf("refusing to record wall-clock metrics: p=%d exceeds %d usable CPUs (NumCPU %d, GOMAXPROCS %d)",
				parallelP, cpus, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		outDir: filepath.Join(".bench_build", "perfbench"),
		llc:    detectLLC(),
	}
	res, err := runBenchmark(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checked runs failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// llcInfo is the size of the last-level cache and where it came from.
type llcInfo struct {
	bytes  int
	source string
}

// assumedLLC is used when the cache hierarchy cannot be read.
const assumedLLC = 64 << 20

// detectLLC reads the largest cache level of CPU 0 from Linux sysfs.
func detectLLC() llcInfo {
	best, bestLevel := 0, 0
	// The pattern is constant and well formed, so Glob cannot fail.
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := readSize(filepath.Join(d, "size"))
		if err1 == nil && err2 == nil && level >= bestLevel {
			best, bestLevel = size, level
		}
	}
	if best == 0 {
		return llcInfo{bytes: assumedLLC, source: "assumed"}
	}
	return llcInfo{bytes: best, source: fmt.Sprintf("sysfs L%d", bestLevel)}
}

func readInt(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(data)))
}

// readSize parses a sysfs cache size such as "107520K".
func readSize(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(data))
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.Atoi(s)
	return n * mult, err
}

// meta is the host and run description printed with every result and
// stored in the span file.
func (b *bench) meta() map[string]any {
	return map[string]any{
		"workload":   b.w.name,
		"seed":       b.cfg.seed,
		"traced":     b.cfg.traced,
		"seconds":    b.cfg.budget.Seconds(),
		"p":          parallelP,
		"eta":        b.w.eta,
		"steps":      b.w.steps,
		"overlap":    b.w.overlap,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"llc_bytes":  b.cfg.llc.bytes,
		"llc_source": b.cfg.llc.source,
		"samples":    b.samples,
	}
}
