// Command warplda-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	warplda-bench -exp fig5          # one experiment, full size
//	warplda-bench -exp all -quick    # every experiment, reduced size
//	warplda-bench -list              # list experiment ids
//
// Full-size runs take minutes per experiment on one core; quick runs
// finish in seconds each.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"warplda/internal/exp"
)

func main() {
	var (
		id    = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick = flag.Bool("quick", false, "run the reduced-size variant")
		seed  = flag.Uint64("seed", 42, "random seed")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(exp.IDs(), "\n"))
		return
	}
	opts := exp.Options{Quick: *quick, Seed: *seed}
	ids := exp.IDs()
	if *id != "all" {
		ids = []string{*id}
	}
	for _, e := range ids {
		r, err := exp.Run(e, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warplda-bench: %s: %v\n", e, err)
			os.Exit(1)
		}
		if _, err := r.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "warplda-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
