package bench

import (
	"testing"
)

// TestTable2Deterministic: the discrete-event substrate makes every
// experiment exactly reproducible — same inputs, bit-identical outputs.
func TestTable2Deterministic(t *testing.T) {
	first, err := RunTable2(Table2Config{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunTable2(Table2Config{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Latency != second[i].Latency {
			t.Fatalf("row %d latency differs across runs: %v vs %v",
				i, first[i].Latency, second[i].Latency)
		}
		for _, size := range Table2Sizes {
			if first[i].Bandwidth[size] != second[i].Bandwidth[size] {
				t.Fatalf("row %d bw(%d) differs: %v vs %v",
					i, size, first[i].Bandwidth[size], second[i].Bandwidth[size])
			}
		}
	}
}

// TestKnapsackDeterministic: the whole 20-rank wide-area run, including
// every steal decision, is reproducible.
func TestKnapsackDeterministic(t *testing.T) {
	run := func() *KnapsackReport {
		r, err := RunKnapsack(KnapsackConfig{Capacity: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.SeqTime != b.SeqTime {
		t.Fatalf("sequential time differs: %v vs %v", a.SeqTime, b.SeqTime)
	}
	for i := range a.Rows {
		if a.Rows[i].Elapsed != b.Rows[i].Elapsed {
			t.Fatalf("%s exec differs: %v vs %v", a.Rows[i].System, a.Rows[i].Elapsed, b.Rows[i].Elapsed)
		}
	}
	if a.Wide.MasterHandled != b.Wide.MasterHandled {
		t.Fatalf("steal counts differ: %d vs %d", a.Wide.MasterHandled, b.Wide.MasterHandled)
	}
	for i := range a.Wide.Stats {
		if a.Wide.Stats[i].Traversed != b.Wide.Stats[i].Traversed {
			t.Fatalf("rank %d traversed differs", i)
		}
	}
}

// TestFigure2Repeatable: two Figure 2 runs in one process render the same
// text. Each testbed's network keeps its own idle GRAM sessions, so the
// second run's client cannot pick up a session dialed in the first run's
// finished kernel.
func TestFigure2Repeatable(t *testing.T) {
	first, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	second, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("Figure 2 changed between runs:\n%s\nthen:\n%s", first, second)
	}
}
