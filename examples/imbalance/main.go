// Imbalance reproduces the paper's Listing 1 on the simulated node: 24
// ranks execute five iterations of do_equal_work / do_unequal_work —
// "work" is sleeping, one work unit per microsecond slept — separated by
// barriers, and the early ranks of the unequal variant busy-wait there.
// Both variants progress at the same iterations/second (Definition 1)
// because the slowest rank is always on the critical path; the unequal
// one does about half the work units (Definition 2) while its barrier
// spinning inflates MIPS. It runs in virtual time and prints Table I's
// rows (`go run ./cmd/experiments -run table1`).
package main

import (
	"fmt"
	"log"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
)

func main() {
	log.SetFlags(0)
	fmt.Printf("%-16s %12s %14s %10s %6s\n", "do_work routine", "iters/s", "work units/s", "MIPS", "spin")
	for _, equal := range []bool{true, false} {
		eng, err := engine.New(engine.DefaultConfig(), apps.ImbalanceSample(24, 5, equal, 1.0))
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(30 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		routine := "do_unequal_work"
		if equal {
			routine = "do_equal_work"
		}
		sec := res.Elapsed.Seconds()
		fmt.Printf("%-16s %12.3f %14.0f %10.1f %6.2f\n",
			routine, 5/sec, res.WorkUnits/sec, res.Counters.MIPS(), res.Jobs[0].Imbalance())
	}
}
