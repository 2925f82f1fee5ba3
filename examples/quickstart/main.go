// Quickstart: tune a single workload end to end with STELLAR and print the
// iteration history, the best configuration, and the learned rules.
package main

import (
	"context"
	"fmt"
	"log"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm/simllm"
)

func main() {
	ctx := context.Background()

	// The LLM backend: the deterministic expert-policy model suite. Any
	// other llm.Client (a hosted model, say) drops in here and receives
	// identical prompts.
	backend := simllm.New(simllm.GPT4o)

	eng := core.New(backend, core.Options{
		Spec:          cluster.Default(), // the paper's 10-node CloudLab testbed
		TuningModel:   simllm.Claude37,   // Tuning Agent model
		AnalysisModel: simllm.GPT4o,      // Analysis Agent model
		ExtractModel:  simllm.GPT4o,      // RAG extraction model
	})

	// Offline phase: extract tunable parameters from the manual via RAG.
	report, err := eng.Offline(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline phase selected %d tunable parameters\n", len(report.Selected))

	// Online phase: one complete tuning run.
	res, err := eng.Tune(ctx, "IOR_16M")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntuning IOR_16M finished after %d attempts: %s\n",
		len(res.History)-1, res.EndReason)
	for i, sp := range res.Speedups() {
		fmt.Printf("  iteration %d: x%.2f\n", i, sp)
	}
	fmt.Println("\nbest configuration:")
	for _, k := range res.BestCfg.Names() {
		fmt.Printf("  %s = %d\n", k, res.BestCfg[k])
	}
	fmt.Printf("\naccumulated rules: %d\n", eng.Rules().Len())
}
