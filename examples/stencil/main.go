// Stencil sweeps unit counts and issue configurations over the
// floating-point stencil workload (the tomcatv kernel): the workload the
// paper uses to show near-linear speedup on independent iterations — and
// where higher-issue configurations are "stymied by contention on the
// cache to memory bus". The sweep makes both effects visible.
package main

import (
	"fmt"
	"log"

	"multiscalar"
)

func main() {
	w := multiscalar.GetWorkload("tomcatv")
	const scale = 32

	scProg, err := w.Build(multiscalar.ModeScalar, scale)
	if err != nil {
		log.Fatal(err)
	}
	msProg, err := w.Build(multiscalar.ModeMultiscalar, scale)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("config           cycles   speedup   bus requests   bank conflicts")
	for _, width := range []int{1, 2} {
		base, err := multiscalar.Run(scProg, multiscalar.ScalarConfig(width, false))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scalar %d-way   %8d     1.00x   %12d %16s\n", width, base.Cycles, base.BusRequests, "-")
		for _, units := range []int{2, 4, 8, 16} {
			res, err := multiscalar.Run(msProg, multiscalar.DefaultConfig(units, width, false))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%2d units %d-way %8d   %6.2fx   %12d %16d\n",
				units, width, res.Cycles, res.Speedup(base), res.BusRequests, res.DBankConflicts)
		}
	}
}
