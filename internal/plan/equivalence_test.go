package plan_test

import (
	"testing"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

// TestCrossRuntimeEquivalence is the contract the refactor exists for: the
// shared-memory dist executor, the strict distributed-memory dmem runtime,
// and a direct Compile all produce byte-identical schedules for one
// configuration. The runtimes differ only in storage binding (halo padding,
// batch width), which the fingerprint deliberately excludes.
func TestCrossRuntimeEquivalence(t *testing.T) {
	m, err := core.NewGeneralized(6, []int{2, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	eta := []int{12, 12, 12}
	solver := sweep.Tridiag{}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}

	ms, err := dist.NewMultiSweep(env, solver, nil)
	if err != nil {
		t.Fatal(err)
	}
	distPlan := ms.CompiledPlan()
	if err := distPlan.Validate(); err != nil {
		t.Fatalf("dist plan invalid: %v", err)
	}

	dmemPlan, err := dmem.CompileSweepPlanOverlap(env, solver, plan.Overlap{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dmemPlan.Validate(); err != nil {
		t.Fatalf("dmem plan invalid: %v", err)
	}

	// A runner built over padded per-rank fields still compiles the same
	// schedule — padding lives in its binding cache, not the plan.
	fields := make([]*dmem.Field, solver.NumVecs())
	for i := range fields {
		fields[i] = dmem.NewField(env, 0, 1)
	}
	runnerPlan := dmem.NewSweepRunner(solver, fields).CompiledPlan()
	if err := runnerPlan.Validate(); err != nil {
		t.Fatalf("dmem runner plan invalid: %v", err)
	}

	direct, err := plan.Compile(plan.Spec{M: m, Eta: eta, Solver: solver})
	if err != nil {
		t.Fatal(err)
	}

	want := direct.Fingerprint()
	for _, c := range []struct {
		name string
		got  string
	}{
		{"dist", distPlan.Fingerprint()},
		{"dmem", dmemPlan.Fingerprint()},
		{"dmem runner", runnerPlan.Fingerprint()},
	} {
		if c.got != want {
			t.Errorf("%s fingerprint diverges from direct Compile:\n%s\nvs\n%s", c.name, c.got, want)
		}
	}
}
