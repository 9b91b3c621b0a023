// Attack: run Fig. 13's adversarial access patterns — a row-cycling
// pattern that thrashes Hydra's counter cache and a pair hammer that
// maximizes RRS's swap rate — and show how Svärd changes the damage.
package main

import (
	"context"
	"fmt"
	"log"

	"svard"
	"svard/internal/report"
	"svard/internal/sim"
)

func main() {
	base := svard.DefaultSimConfig()
	base.Cores = 4
	base.InstrPerCore = 60_000
	base.WarmupPerCore = 10_000

	cells, err := sim.RunFig13Ctx(context.Background(), sim.Fig13Options{
		Base:   base,
		NRH:    64,
		Benign: []string{"mcf06", "lbm06", "ycsb-a"},
		Progress: func(msg string) {
			fmt.Printf("  running %s...\n", msg)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(report.Fig13(cells))
	fmt.Println("Takeaway 9: Svärd mitigates the overheads both adversarial patterns")
	fmt.Println("inflict; RRS benefits far more than Hydra, whose counter-cache")
	fmt.Println("traffic is untouched by per-row thresholds.")
}
