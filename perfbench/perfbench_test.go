package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"genmp/internal/rt"
)

// declared is the part of BENCHMARK.json the tests check the output against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny shrinks a workload to a smoke-test size; the code path is the same.
func tiny(w workload) workload {
	w.eta = 8
	w.steps = min(w.steps, 3)
	return w
}

func tinyConfig(t *testing.T, seed int64, traced bool) config {
	return config{
		seed: seed, budget: 150 * time.Millisecond, traced: traced, outDir: t.TempDir(),
		llc: llcInfo{bytes: 1 << 20, source: "test"},
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that res holds exactly the declared metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, what string, res result, want []declaredMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", what, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(res.Metrics), len(want))
	}
	for _, d := range want {
		if !namePattern.MatchString(d.Name) {
			t.Errorf("%s: metric name %q uses characters outside [A-Za-z0-9_.-]", what, d.Name)
		}
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, d.Name)
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", what, d.Name, m.Value)
		}
	}
}

// exactCounters are the schedule guards: they must not vary between runs.
var exactCounters = []string{
	"rt.messages", "rt.bytes", "plan.phases", "plan.carry_bytes",
	"sim.makespan_s", "cost.predicted_s", "partition.candidates", "sweep.flops_per_elem",
}

// TestSmokeEveryWorkload runs every declared workload at a tiny size in
// both modes and checks the printed metrics against BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, dw := range d.Workloads {
		w, err := findWorkload(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w = tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runBenchmark(w, tinyConfig(t, 1, false), &out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "end to end", res, d.EndToEnd)

			var traced [2]result
			for i, seed := range []int64{1, 2} {
				if traced[i], err = runBenchmark(w, tinyConfig(t, seed, true), &out); err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, "per layer", traced[i], d.PerLayer)
			}
			for _, name := range exactCounters {
				a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s differs between runs: %v vs %v", name, a, b)
				}
			}
			if !strings.Contains(out.String(), "model vs hardware") {
				t.Error("traced report lacks the model-vs-hardware table")
			}
		})
	}
}

// TestCorruptedFieldIsCaught shows the fidelity gate rejects a run whose
// field differs from the simulator's in a single bit, or whose traffic
// differs by one message or one byte.
func TestCorruptedFieldIsCaught(t *testing.T) {
	w, err := findWorkload("sp-64")
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := setup(tiny(w), parallelP, t.TempDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, sres, err := in.simulate()
	if err != nil {
		t.Fatal(err)
	}
	ref := reference{field: g, msgs: sres.TotalMessages(), bytes: sres.TotalBytes()}
	got, res, err := in.solve(rt.NewMachine(parallelP))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.check(got, res.TotalMessages(), res.TotalBytes()); err != nil {
		t.Fatalf("an intact run fails the gate: %v", err)
	}
	if err := ref.check(got, res.TotalMessages()+1, res.TotalBytes()); !errors.Is(err, errMismatch) {
		t.Errorf("an extra message passes the gate: %v", err)
	}
	if err := ref.check(got, res.TotalMessages(), res.TotalBytes()-1); !errors.Is(err, errMismatch) {
		t.Errorf("a missing byte passes the gate: %v", err)
	}
	data := got.Data()
	data[len(data)/2] = math.Float64frombits(math.Float64bits(data[len(data)/2]) ^ 1)
	if err := ref.check(got, res.TotalMessages(), res.TotalBytes()); !errors.Is(err, errMismatch) {
		t.Errorf("a field with one flipped bit passes the gate: %v", err)
	}
	if err := ref.check(nil, res.TotalMessages(), res.TotalBytes()); !errors.Is(err, errMismatch) {
		t.Errorf("a run without a gathered field passes the gate: %v", err)
	}
}

// TestRunRejectsBadArguments checks that bad flags exit non-zero without
// printing a result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "sp-64", "--seconds", "0"},
		{"--workload", "sp-64", "--seconds", "1", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
