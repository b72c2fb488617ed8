// Command bench is the repository benchmark. It runs one of four
// workloads — three against a real bloomrfd process on loopback, one
// against the in-process LSM store — checks every answer, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics and a span
// summary, as one JSON object on the last line of standard output.
//
// run.sh builds bloomrfd and this program from the checkout and runs it;
// from the repository root:
//
//	bash bench/run.sh --workload point-binary-large --seed 1 --seconds 15 --trace 0
//
// README.md in this directory describes the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

type config struct {
	seed     uint64
	seconds  float64 // measured time per run
	trace    bool    // report per-layer metrics and record spans
	bloomrfd string  // server binary
	work     string  // data dirs, logs and span files
	conns    int     // client connections, and the bench's GOMAXPROCS
	setups   int     // least set-ups per run; setup_s is their median

	// scale multiplies every key count; 1 except in the smoke test.
	scale float64
	// injectFalseNegative flips one verdict of a loaded key, so a test can
	// see the correctness gate fail the run.
	injectFalseNegative bool
}

// workloads lists the workload names in run order.
func workloads() []string {
	var names []string
	for _, sp := range serverSpecs {
		names = append(names, sp.name)
	}
	return append(names, lsmWorkload)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloads(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same keys, ranges and traces")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	bin := flag.String("bloomrfd", "", "path of the bloomrfd binary under test")
	work := flag.String("work", ".bench_build/work", "directory for data dirs, server logs and span files")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloads()
	}
	for _, n := range names {
		if !slices.Contains(workloads(), n) {
			fatalf("unknown workload %q; want one of %s or all", n, strings.Join(workloads(), ", "))
		}
	}
	if *bin == "" {
		fatalf("-bloomrfd is required (run.sh builds it)")
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, bloomrfd: *bin, work: *work,
		conns: nproc, setups: 3, scale: 1,
	}
	if cfg.trace {
		// The traced run reports no setup_s; one set-up is enough.
		cfg.setups = 1
	}
	correct := true
	for _, n := range names {
		res, err := run(n, cfg, os.Stdout)
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// run runs one workload and returns its result.
func run(name string, cfg config, out io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fmt.Fprintf(out, "workload %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	printEnv(out, cfg)
	root := tr.start(name, 0, 0)
	var rep *report
	var err error
	if name == lsmWorkload {
		rep, err = runLSM(cfg, out, tr, root.id)
	} else {
		i := slices.IndexFunc(serverSpecs, func(sp serverSpec) bool { return sp.name == name })
		rep, err = runServer(serverSpecs[i], cfg, out, tr, root.id)
	}
	if err != nil {
		return result{}, err
	}
	root.end()

	res := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed}
	fmt.Fprintf(out, "ops_attempted %d\nops_failed %d\nwrong_answers %d\n", rep.attempted, rep.failed, rep.wrong)
	if rep.wrong > 0 {
		fmt.Fprintf(out, "WRONG: %d answers broke a correctness rule; first: %s\n", rep.wrong, rep.firstErr)
	}
	if !cfg.trace {
		res.Metrics, err = emit(out, "metric", endToEnd, rep.e2e)
		return res, err
	}
	tr.summary(out)
	dir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, name+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
	res.Metrics, err = emit(out, "layer", perLayer, rep.layer)
	return res, err
}

// printEnv prints the environment block of a report.
func printEnv(w io.Writer, cfg config) {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	commit += modified
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "env commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q l2=%s l3=%s kernel=%s seed=%d conns=%d setups=%d\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu,
		read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
		read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
		read("/proc/sys/kernel/osrelease"), cfg.seed, cfg.conns, cfg.setups)
}
