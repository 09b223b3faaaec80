// Command mvbench regenerates the paper's tables and figures as text.
//
// Usage:
//
//	mvbench            # everything
//	mvbench -table 4   # one §3.6 table (1..4)
//	mvbench -figure 3  # one figure (1, 2, 3, 5)
//	mvbench -measured    # estimated-vs-measured parity run
//	mvbench -sweeps      # the ablation sweeps recorded in EXPERIMENTS.md
//	mvbench -parallel    # parallel branch-and-bound vs exhaustive search
//	                     # (tune with -j workers and -seed n)
//
// -j sets the -parallel worker count (alias: -workers). -cpuprofile and
// -memprofile write pprof profiles of whatever modes were run.
//
// Observability: -metrics dumps the global metrics snapshot as JSON to
// stderr when the run finishes (-metrics-out FILE writes it to a file
// instead), and -http ADDR serves /metrics, /spans, /spans/summary and
// /debug/pprof while the process runs, then blocks so the endpoints stay
// inspectable (Ctrl-C to exit).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/paper"
)

func main() {
	log.SetFlags(0)
	table := flag.Int("table", 0, "print one §3.6 table (1..4)")
	figure := flag.Int("figure", 0, "print one figure (1, 2, 3, 5)")
	measured := flag.Bool("measured", false, "run the measured-parity experiment")
	sweeps := flag.Bool("sweeps", false, "run the ablation sweeps")
	parallel := flag.Bool("parallel", false, "compare parallel branch-and-bound vs exhaustive")
	var workers int
	flag.IntVar(&workers, "j", 0, "worker count for -parallel (0 = default)")
	flag.IntVar(&workers, "workers", 0, "alias for -j")
	seed := flag.Int64("seed", 0, "chunk-order seed for -parallel (result is seed-independent)")
	dot := flag.Bool("dot", false, "emit the ProblemDept expression DAG as Graphviz DOT")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	metrics := flag.Bool("metrics", false, "dump the metrics snapshot as JSON to stderr on exit")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot JSON to this file on exit (implies -metrics)")
	httpAddr := flag.String("http", "", "serve /metrics, /spans and /debug/pprof on this address (e.g. :8080) and block after the run")
	flag.Parse()

	if *httpAddr != "" {
		addr, err := obs.Serve(*httpAddr, obs.Default, obs.Trace)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics: serving http://%s/metrics (also /spans, /spans/summary, /debug/pprof)", addr)
	}
	defer func() {
		if *metrics || *metricsOut != "" {
			dumpMetrics(*metricsOut)
		}
		if *httpAddr != "" {
			log.Printf("metrics: run complete; endpoints stay up until interrupted")
			select {}
		}
	}()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	all := *table == 0 && *figure == 0 && !*measured && !*sweeps && !*parallel && !*dot

	var f *paper.Fixture
	needFixture := all || *table > 0 || *figure == 1 || *figure == 2 || *dot
	if needFixture {
		var err error
		f, err = paper.NewFixture(corpus.PaperConfig())
		if err != nil {
			log.Fatal(err)
		}
	}

	emit := func(s string) { fmt.Println(s) }

	if all || *table == 1 {
		emit(f.Table1())
	}
	if all || *table == 2 {
		emit(f.Table2())
	}
	if all || *table == 3 {
		emit(f.Table3())
	}
	if all || *table == 4 {
		emit(f.Table4())
	}
	if *dot {
		fmt.Print(f.D.RenderDOT(map[int]bool{f.D.Root.ID: true, f.N3.ID: true}))
	}
	if all || *figure == 1 {
		emit(f.Figure1())
	}
	if all || *figure == 2 {
		emit(f.Figure2())
	}
	if all || *figure == 3 {
		out, err := paper.Figure3(corpus.PaperConfig())
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
	}
	if all || *figure == 5 {
		_, out, err := paper.Figure5(corpus.DefaultFigure5Config())
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
	}
	if all {
		res, err := f.Optimum()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Algorithm OptimalViewSet: chose %s at %.4g page I/Os per transaction (explored %d sets)\n\n",
			res.Best.Set.Key(), res.Best.Weighted, res.Explored)
	}
	if all || *measured {
		_, out, err := paper.MeasuredParity(corpus.PaperConfig())
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
	}
	if all || *parallel {
		out, err := paper.ParallelSearch(corpus.DefaultFigure5Config(), workers, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
	}
	if all || *sweeps {
		_, out, err := paper.SweepFanout(1000, []int{1, 2, 5, 10, 20, 50, 100})
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
		_, out, err = paper.SweepWeights(corpus.PaperConfig(), []float64{0.01, 0.1, 1, 10, 100})
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
		_, out, err = paper.SweepOptimizers([]int{2, 3, 4, 5})
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
		_, out, err = paper.SweepBuffer(corpus.PaperConfig(), []int{0, 64, 512, 4096, 32768}, 400)
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
		_, out, err = paper.SweepBatch(corpus.Config{Departments: 1000, EmpsPerDept: 200}, []int{1, 2, 5, 10, 50, 200})
		if err != nil {
			log.Fatal(err)
		}
		emit(out)
	}
}

// dumpMetrics writes the global registry snapshot (and the span
// self-time summary, to stderr only) when the run finishes. An empty
// path means stderr.
func dumpMetrics(path string) {
	data := obs.SnapshotJSON(obs.Default)
	if path == "" {
		fmt.Fprintln(os.Stderr, string(data))
		fmt.Fprint(os.Stderr, obs.Trace.SummaryTable())
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Printf("metrics: %v", err)
		return
	}
	log.Printf("metrics: snapshot written to %s", path)
}
