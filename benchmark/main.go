// Command benchmark measures the maintenance engine end to end, from
// SQL text to SSE event, on four workloads, and attributes the time to
// the repository's packages with spans taken from outside them.
// README.md in this directory defines every workload and metric.
//
// One run of one workload, as the benchmark driver calls it (through
// run.sh, which builds this program first):
//
//	benchmark -workload corp-serve-tcp -seed 7 -seconds 15 -trace 0
//
// prints a table on standard error and, as the last line of standard
// output, one JSON object with the run's end-to-end metrics (-trace 0)
// or per-layer metrics (-trace 1). Without -workload it runs the whole
// set — every workload untraced, then traced — and prints all of it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var cfg config
	workload := flag.String("workload", "", "run this workload once (default: the whole set)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of each timed section")
	trace := flag.Int("trace", 0, "with -workload: 1 records the benchmark's spans and reports per-layer metrics")
	flag.IntVar(&cfg.ops, "ops", 0, "time exactly this many operations per workload in place of -seconds, so counts repeat")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke run: one second per timed section, one set-up; not comparable")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and check the sets against each other")
	doCompare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	out := flag.String("out", "", "write the whole set's results as JSON to this file")
	spansOut := flag.String("spans", "", "write the traced runs' spans as JSON to this file")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for WAL and feed files")
	flag.Parse()

	if *doCompare {
		os.Exit(compareFiles(flag.Args()))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if cfg.quick {
		cfg.seconds = 1
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	if *workload != "" {
		os.Exit(runOne(*workload, cfg, *trace == 1, *spansOut))
	}
	os.Exit(runSets(cfg, *repeat, *out, *spansOut))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne is the driver's contract: one workload, one run, one JSON
// object on the last line of standard output.
func runOne(name string, cfg config, traced bool, spansOut string) int {
	def, ok := findWorkload(name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	cfg.trace = traced
	r, err := measure(def, cfg)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stderr, r)
	if err := saveSpans(spansOut, []*result{r}); err != nil {
		fatal(err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fatal(err)
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// runSets runs the whole set repeat times: each workload untraced for
// the end-to-end metrics, then traced for the ledger, with the
// throughput the tracing cost between them.
func runSets(cfg config, repeat int, out, spansOut string) int {
	file := resultsFile{Host: thisHost(), Seed: cfg.seed, Seconds: cfg.seconds, Ops: cfg.ops, Quick: cfg.quick}
	failed := false
	for i := 0; i < repeat; i++ {
		var set []*result
		for _, def := range workloadDefs {
			var pair [2]*result
			for t, traced := range []bool{false, true} {
				c := cfg
				c.trace = traced
				r, err := measure(def, c)
				if err != nil {
					fatal(err)
				}
				printResult(os.Stdout, r)
				failed = failed || !r.Correct
				pair[t] = r
				set = append(set, r)
			}
			plain, traced := pair[0].Metrics["txns_per_s"].Value, pair[1].Metrics["trace.txns_per_s"].Value
			fmt.Printf("%s: trace_overhead_pct %.2f (untraced %.0f txn/s, traced %.0f txn/s)\n\n",
				def.name, 100*(plain-traced)/plain, plain, traced)
		}
		file.Sets = append(file.Sets, set)
	}
	if err := saveSpans(spansOut, file.Sets[len(file.Sets)-1]); err != nil {
		fatal(err)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if repeat > 1 && !cfg.quick {
		s, err := loadSpec()
		if err != nil {
			fatal(err)
		}
		half := (repeat + 1) / 2
		fmt.Printf("sets 1..%d (A) against sets %d..%d (B)\n", half, half+1, repeat)
		if !compare(os.Stdout, s, file.Sets[:half], file.Sets[half:], cfg.ops > 0) {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fatal(fmt.Errorf("-compare takes two results files"))
	}
	s, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	a, err := readResults(paths[0])
	if err != nil {
		fatal(err)
	}
	b, err := readResults(paths[1])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A: %s (commit %s, %d CPUs)   B: %s (commit %s, %d CPUs)\n",
		paths[0], a.Host.Commit, a.Host.NProc, paths[1], b.Host.Commit, b.Host.NProc)
	exact := a.Ops > 0 && a.Ops == b.Ops && a.Seed == b.Seed
	if !compare(os.Stdout, s, a.Sets, b.Sets, exact) {
		return 1
	}
	return 0
}

func printResult(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "%s (%s): seed %d, %d operations, %d transactions in %.2f s; %d attempted, %d failed\n",
		r.Workload, kind, r.Seed, r.Operations, r.Transactions, r.TimedSeconds, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.4f %-7s (%d samples)\n", name, m.Value, m.Unit, m.Samples)
	}
	if r.Traced {
		printLedger(w, r.Workload, r.Ledger, r.TimedSeconds)
	}
}

// saveSpans writes the spans of the traced runs among results as one
// JSON object keyed by workload name.
func saveSpans(path string, results []*result) error {
	if path == "" {
		return nil
	}
	byWorkload := map[string][]span{}
	for _, r := range results {
		if r.Traced {
			byWorkload[r.Workload] = r.spans
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(byWorkload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
