// Command mvopt selects the optimal set of additional views to
// materialize for a SQL-defined view or assertion under a workload
// specification — the paper's core question as a command-line tool.
//
// Usage:
//
//	mvopt -schema schema.sql -view ProblemDept \
//	      -txn 'modify:Emp:Salary:1:1' -txn 'modify:Dept:Budget:1:1' \
//	      [-method exhaustive|shielded|greedy|single-tree|heuristic-marking|no-additional]
//
// Each -txn flag is kind:relation[:cols]:size:weight, where kind is
// insert, delete or modify and cols is a +-separated column list for
// modifications (e.g. 'modify:Emp:Salary+DName:1:2').
//
// The schema file holds CREATE TABLE / CREATE INDEX / INSERT statements
// plus the CREATE VIEW / CREATE ASSERTION definitions.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	mvmaint "repro"
	"repro/internal/obs"
	"repro/internal/txn"
)

type txnFlags []string

// String implements flag.Value.
func (t *txnFlags) String() string { return strings.Join(*t, ",") }

// Set implements flag.Value.
func (t *txnFlags) Set(s string) error {
	*t = append(*t, s)
	return nil
}

func parseTxn(spec string) (*txn.Type, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 4 {
		return nil, fmt.Errorf("txn spec %q: want kind:rel[:cols]:size:weight", spec)
	}
	var kind txn.Kind
	switch parts[0] {
	case "insert":
		kind = txn.Insert
	case "delete":
		kind = txn.Delete
	case "modify":
		kind = txn.Modify
	default:
		return nil, fmt.Errorf("txn spec %q: unknown kind %q", spec, parts[0])
	}
	rel := parts[1]
	var cols []string
	sizeIdx := 2
	if kind == txn.Modify {
		if len(parts) < 5 {
			return nil, fmt.Errorf("txn spec %q: modify needs cols", spec)
		}
		cols = strings.Split(parts[2], "+")
		sizeIdx = 3
	}
	size, err := strconv.ParseFloat(parts[sizeIdx], 64)
	if err != nil {
		return nil, fmt.Errorf("txn spec %q: size: %v", spec, err)
	}
	weight, err := strconv.ParseFloat(parts[sizeIdx+1], 64)
	if err != nil {
		return nil, fmt.Errorf("txn spec %q: weight: %v", spec, err)
	}
	return &txn.Type{
		Name:    spec,
		Weight:  weight,
		Updates: []txn.RelUpdate{{Rel: rel, Kind: kind, Size: size, Cols: cols}},
	}, nil
}

func main() {
	log.SetFlags(0)
	schema := flag.String("schema", "", "SQL file with schema, data, views and assertions")
	view := flag.String("view", "", "view or assertion to optimize (repeatable via comma)")
	method := flag.String("method", "exhaustive", "exhaustive|shielded|greedy|single-tree|heuristic-marking|no-additional")
	var txns txnFlags
	flag.Var(&txns, "txn", "transaction type kind:rel[:cols]:size:weight (repeatable)")
	metrics := flag.Bool("metrics", false, "dump the metrics snapshot as JSON to stderr on exit")
	metricsOut := flag.String("metrics-out", "", "write the metrics snapshot JSON to this file on exit (implies -metrics)")
	httpAddr := flag.String("http", "", "serve /metrics, /spans and /debug/pprof on this address (e.g. :8080) and block after the run")
	flag.Parse()

	if *schema == "" || *view == "" || len(txns) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *httpAddr != "" {
		addr, err := obs.Serve(*httpAddr, obs.Default, obs.Trace)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics: serving http://%s/metrics (also /spans, /spans/summary, /debug/pprof)", addr)
	}
	defer func() {
		if *metrics || *metricsOut != "" {
			data := obs.SnapshotJSON(obs.Default)
			if *metricsOut == "" {
				fmt.Fprintln(os.Stderr, string(data))
				fmt.Fprint(os.Stderr, obs.Trace.SummaryTable())
			} else if err := os.WriteFile(*metricsOut, data, 0o644); err != nil {
				log.Printf("metrics: %v", err)
			} else {
				log.Printf("metrics: snapshot written to %s", *metricsOut)
			}
		}
		if *httpAddr != "" {
			log.Printf("metrics: run complete; endpoints stay up until interrupted")
			select {}
		}
	}()
	sys, err := optimize(*schema, *view, *method, txns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sys.Explain())
}

// optimize loads the schema file, parses the workload and runs the
// chosen optimizer over the named views.
func optimize(schema, view, method string, txns []string) (*mvmaint.System, error) {
	sql, err := os.ReadFile(schema)
	if err != nil {
		return nil, err
	}
	db := mvmaint.Open()
	if err := db.Exec(string(sql)); err != nil {
		return nil, fmt.Errorf("schema: %v", err)
	}

	var workload []*txn.Type
	for _, spec := range txns {
		t, err := parseTxn(spec)
		if err != nil {
			return nil, err
		}
		workload = append(workload, t)
	}

	methods := map[string]mvmaint.Method{
		"exhaustive":        mvmaint.Exhaustive,
		"shielded":          mvmaint.Shielded,
		"greedy":            mvmaint.Greedy,
		"single-tree":       mvmaint.SingleTree,
		"heuristic-marking": mvmaint.HeuristicMarking,
		"no-additional":     mvmaint.NoAdditional,
	}
	m, ok := methods[method]
	if !ok {
		return nil, fmt.Errorf("unknown method %q", method)
	}

	return db.Build(strings.Split(view, ","), mvmaint.Config{Workload: workload, Method: m})
}
