// Command bloomrf-bench regenerates the tables and figures of the bloomRF
// paper's evaluation (EDBT 2023). Each experiment prints the same rows or
// series the paper reports; the experiment list below indexes them by the
// paper's figure numbers.
//
// Usage:
//
//	bloomrf-bench -exp fig9 -scale medium
//	bloomrf-bench -exp all -scale small -csv
//
// Experiments: fig1, fig5, fig8, fig9, fig9d, fig10, fig11, fig12a,
// fig12b, fig12c, fig12d, fig12s, fig12e, fig12f, fig12g, sect6, ycsb, all.
// ycsb replays the paper's range mix (a YCSB E derivative whose queries
// are almost all empty) over the LSM store once per filter backend
// (bloomRF, Bloom, Rosetta, SuRF) and prints data blocks read,
// empty-query FPR and IO saved vs Bloom.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run (see package doc; 'all' runs everything)")
		scaleFl = flag.String("scale", "medium", "experiment scale: small | medium | paper")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		dir     = flag.String("dir", "", "scratch directory for LSM experiments (default: temp)")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	scale, err := harness.ParseScale(*scaleFl)
	if err != nil {
		fatal(err)
	}
	scratch := *dir
	if scratch == "" {
		scratch, err = os.MkdirTemp("", "bloomrf-bench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(scratch)
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}

	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = []string{"fig8", "sect6", "fig5", "fig1", "fig11", "fig9", "fig9d",
			"fig10", "fig12a", "fig12b", "fig12c", "fig12d", "fig12s", "fig12e", "fig12f", "fig12g", "ycsb"}
	}
	allDists := []workload.Distribution{workload.Uniform, workload.Normal, workload.Zipfian}
	for _, name := range names {
		start := time.Now()
		var tables []*harness.Table
		var err error
		switch strings.TrimSpace(name) {
		case "fig8":
			tables = harness.Fig8()
		case "sect6":
			tables = []*harness.Table{harness.Sect6Table()}
		case "fig5":
			tables = harness.Fig5(scale)
		case "fig1":
			tables = harness.Fig1(scale)
		case "fig11":
			tables = harness.Fig11(scale, allDists, allDists)
		case "fig9":
			tables, err = harness.Fig9(scale, filepath.Join(scratch, "fig9"))
		case "fig9d":
			tables, err = harness.Fig9D(scale, filepath.Join(scratch, "fig9d"))
		case "fig10":
			tables, err = harness.Fig10(scale, filepath.Join(scratch, "fig10"))
		case "fig12a":
			tables = harness.Fig12A(scale)
		case "fig12b":
			tables = harness.Fig12B(scale)
		case "fig12c":
			tables, err = harness.Fig12C(scale, filepath.Join(scratch, "fig12c"))
		case "fig12d":
			tables = harness.Fig12D(scale)
		case "fig12s":
			tables = harness.Fig12Strings(scale)
		case "fig12e":
			tables = harness.Fig12E(scale)
		case "fig12f":
			tables = harness.Fig12F(scale)
		case "fig12g":
			tables, err = harness.Fig12G(scale, filepath.Join(scratch, "fig12g"))
		case "ycsb":
			tables, err = harness.YCSB(scale, filepath.Join(scratch, "ycsb"))
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n", t.Title)
				t.RenderCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bloomrf-bench:", err)
	os.Exit(1)
}
