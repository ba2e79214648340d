package main

import (
	"fmt"
	"strings"

	"progresscap/internal/cluster"
	"progresscap/internal/trace"
)

// sameResult fails when two renderings of one op differ.
func sameResult(what, want, got string) error {
	if want == got {
		return nil
	}
	at := 0
	for at < len(want) && at < len(got) && want[at] == got[at] {
		at++
	}
	return fmt.Errorf("%s result differs at byte %d of %d", what, at, len(want))
}

// checkUnderCap fails when a steady window's average package power
// exceeds the cap by more than margin. The first two windows (the
// controller settling) and the last (partial) window are skipped.
func checkUnderCap(windowW []float64, capW, margin float64) error {
	for i := 2; i < len(windowW)-1; i++ {
		if windowW[i] > capW+margin {
			return fmt.Errorf("window %d averaged %.3f W under a %.3f W cap", i, windowW[i], capW)
		}
	}
	return nil
}

// checkBudget fails each epoch at which the caps programmed on the
// fleet's nodes sum to more than the budget in force.
func checkBudget(res *cluster.Result) map[int]error {
	caps := make([]*trace.Series, len(res.Nodes))
	for i, n := range res.Nodes {
		caps[i] = n.CapTrace()
	}
	return checkBudgetTraces(res.BudgetTrace, caps)
}

// budgetSlackW absorbs float rounding in the sum of 1024 caps.
const budgetSlackW = 1e-6

func checkBudgetTraces(budget *trace.Series, caps []*trace.Series) map[int]error {
	fails := map[int]error{}
	for i, p := range budget.Points() {
		var sum float64
		for _, c := range caps {
			if v, ok := c.ValueAt(p.T); ok {
				sum += v
			}
		}
		if sum > p.V+budgetSlackW {
			fails[i] = fmt.Errorf("epoch %d: caps sum to %.3f W over a %.3f W budget", i, sum, p.V)
		}
	}
	return fails
}

// checkRender fails an artifact that rendered nothing beyond its title.
func checkRender(render string) error {
	lines := strings.Split(strings.TrimSpace(render), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("empty render %q", render)
	}
	return nil
}
