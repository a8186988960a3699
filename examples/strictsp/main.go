// strictsp runs the SP pseudo-application in strict distributed-memory
// mode: every rank works only on its private padded tile copies, stencil
// halos and sweep carries travel as real message payloads, and the final
// state is gathered to rank 0 over messages — then validated elementwise
// against the serial reference. This is the execution model of an MPI
// program, with nothing smuggled through shared memory.
package main

import (
	"fmt"
	"log"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
)

func main() {
	log.SetFlags(0)

	const p = 12
	eta := []int{24, 24, 24}
	steps := 3
	m, err := core.NewGeneralized(p, []int{2, 6, 6})
	if err != nil {
		log.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict distributed-memory SP: %s over %v, %d steps\n", m.Name(), eta, steps)

	want := nas.InitialState(eta)
	nas.SerialSolve(want, steps)

	got, res, err := dmem.RunSPOverlap(env, nas.Origin2000Machine(p), steps, plan.Overlap{})
	if err != nil {
		log.Fatal(err)
	}
	diff := grid.MaxAbsDiff(want, got)
	fmt.Printf("gathered state vs serial reference: max diff = %g", diff)
	if diff > 1e-9 {
		log.Fatal(" — VALIDATION FAILED")
	}
	fmt.Println("  ✓")

	fmt.Printf("\ntraffic (all data really moved in payloads):\n")
	fmt.Printf("  messages   %8d\n", res.TotalMessages())
	fmt.Printf("  bytes      %8d  (halos + carries + gather)\n", res.TotalBytes())
	fmt.Printf("  makespan   %10.3f ms virtual\n", res.Makespan*1e3)
	s0 := res.Ranks[0]
	fmt.Printf("  rank 0: compute %.3f ms, comm %.3f ms, idle %.3f ms\n",
		s0.ComputeTime*1e3, s0.CommTime*1e3, s0.WaitTime*1e3)
}
