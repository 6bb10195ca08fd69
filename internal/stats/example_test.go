package stats_test

import (
	"fmt"
	"os"

	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// ExampleTrimmedMean averages ten simulation outcomes the way the paper
// does: a 20% trimmed mean discarding the two lowest and two highest.
func ExampleTrimmedMean() {
	runs := []float64{0.91, 0.90, 0.89, 0.92, 0.88, 0.90, 0.13, 0.91, 0.99, 0.90}
	tm, err := stats.TrimmedMean(runs, 0.20)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("trimmed mean: %.3f\n", tm)
	// Output:
	// trimmed mean: 0.902
}

// ExampleTable_WriteCSV emits an experiment series as CSV.
func ExampleTable_WriteCSV() {
	t := &stats.Table{}
	t.AddColumn("round", []float64{1, 2})
	t.AddColumn("final_frac", []float64{0.95, 0.91})
	if err := t.WriteCSV(os.Stdout); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// round,final_frac
	// 1,0.95
	// 2,0.91
}
