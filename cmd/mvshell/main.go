// Command mvshell is a tiny interactive shell over the library: type SQL
// statements terminated by ';', declare views and assertions, then
// '.build view1,view2' to start maintained execution. Subsequent DML runs
// through the maintenance engine with live page-I/O reporting and
// assertion checking.
//
// With -waldir DIR the shell is durable: .build attaches a write-ahead
// log in DIR (one fsync per maintained statement) and records the
// session's DDL in the checkpoint metadata, so a later mvshell -waldir
// DIR session can '.recover' the whole system — catalog, base
// relations, materialized views and log tail — without re-running the
// setup script.
//
// Meta commands ('\' works in place of '.'):
//
//	.build names     optimize + materialize for the named views/assertions
//	.explain         show the optimizer's decision
//	.view name       print a maintained view's rows
//	.checkpoint      write a durable checkpoint (after .build, with -waldir)
//	.recover         rebuild the system from -waldir's durable state
//	.io              print cumulative page I/O counters
//	.stats           print the metrics registry and span self-time summary
//	.flight [path]   print the flight-recorder tail, or dump it to path
//	.serve [addr]    start the mvserve HTTP surface over this session (default :7070)
//	.subscribe v [n] print the next n changefeed events for view v (default 10)
//	.quit            exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	mvmaint "repro"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/wal"
)

// shell is the mutable session state the meta commands operate on.
type shell struct {
	db     *mvmaint.DB
	sys    *mvmaint.System
	mgr    *wal.Manager
	sv     *mvmaint.Serving
	waldir string
	ddl    []string // CREATE statements run this session, persisted at checkpoint
	names  []string // view/assertion names passed to .build
}

func main() {
	log.SetFlags(0)
	waldir := flag.String("waldir", "", "directory for durable state (enables .checkpoint/.recover)")
	flag.Parse()

	sh := &shell{db: mvmaint.Open(), waldir: *waldir}
	defer func() {
		if sh.mgr != nil {
			if err := sh.mgr.Close(); err != nil {
				fmt.Println("wal close:", err)
			}
		}
	}()

	fmt.Println("mvmaint shell — SQL statements end with ';', meta commands start with '.'")
	if sh.waldir != "" {
		fmt.Printf("durable mode: WAL directory %s\n", sh.waldir)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("mv> ")
		} else {
			fmt.Print("..> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (strings.HasPrefix(trimmed, ".") || strings.HasPrefix(trimmed, "\\")) {
			if !sh.meta(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sql := buf.String()
			buf.Reset()
			sh.runSQL(sql)
		}
		prompt()
	}
}

// meta handles dot-commands; returns false to quit.
func (sh *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	name := strings.TrimLeft(fields[0], ".\\")
	switch name {
	case "quit", "exit":
		return false
	case "build":
		if len(fields) < 2 {
			fmt.Println("usage: .build view1,view2")
			return true
		}
		names := strings.Split(fields[1], ",")
		s, err := sh.db.Build(names, mvmaint.Config{
			Workload: defaultWorkload(sh.db),
			Method:   mvmaint.Exhaustive,
		})
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		sh.sys, sh.names = s, names
		fmt.Print(s.Explain())
		sh.attach()
	case "checkpoint":
		if sh.mgr == nil {
			fmt.Println("no durable system (start with -waldir, then .build)")
			return true
		}
		if err := sh.mgr.Checkpoint(nil); err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Printf("  checkpoint written at LSN %d\n", sh.mgr.LastLSN())
	case "recover":
		sh.recover()
	case "explain":
		if sh.sys == nil {
			fmt.Println("no system built yet (.build first)")
			return true
		}
		fmt.Print(sh.sys.Explain())
	case "view":
		if sh.sys == nil || len(fields) < 2 {
			fmt.Println("usage (after .build): .view name")
			return true
		}
		rows, err := sh.sys.ViewRows(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, r := range rows {
			fmt.Printf("  %s ×%d\n", r.Tuple, r.Count)
		}
		fmt.Printf("  (%d rows)\n", len(rows))
	case "serve":
		sh.serve(fields[1:])
	case "subscribe":
		sh.subscribe(fields[1:])
	case "io":
		fmt.Println(" ", sh.db.Store.IO.String())
	case "stats":
		printStats()
	case "flight":
		printFlight(fields[1:])
	default:
		fmt.Println("unknown meta command:", fields[0])
	}
	return true
}

// serve starts the mvserve HTTP surface — snapshot reads, changefeeds,
// POST /txn, obs endpoints — over the session's built system. The
// listener runs in a goroutine; the shell stays interactive and shell
// SQL keeps flowing through the same maintained pipeline the server
// uses, so HTTP subscribers see shell-driven windows too.
func (sh *shell) serve(args []string) {
	if sh.sys == nil {
		fmt.Println("no system built yet (.build first)")
		return
	}
	if sh.sv != nil {
		fmt.Println("already serving (one listener per session)")
		return
	}
	addr := ":7070"
	if len(args) > 0 {
		addr = args[0]
	}
	feedDir := ""
	if sh.waldir != "" {
		feedDir = sh.waldir + "/feed"
	}
	sv, err := sh.sys.NewServing(mvmaint.ServeOptions{FeedDir: feedDir})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sh.sv = sv
	go func() {
		if err := sv.Server.Serve(addr, func(bound string) {
			fmt.Printf("\n  serving on %s (views, feeds, /txn, /metrics)\nmv> ", bound)
		}); err != nil {
			fmt.Printf("\n  serve: %v\nmv> ", err)
		}
	}()
}

// subscribe prints the next n changefeed events (default 10) for a view
// from the in-process hub — the same stream SSE clients get — then
// detaches. It gives up after 30 seconds without an event.
func (sh *shell) subscribe(args []string) {
	if sh.sv == nil {
		fmt.Println("not serving (.serve first)")
		return
	}
	if len(args) < 1 {
		fmt.Println("usage: .subscribe view [n]")
		return
	}
	n := 10
	if len(args) > 1 {
		if _, err := fmt.Sscanf(args[1], "%d", &n); err != nil || n < 1 {
			fmt.Println("usage: .subscribe view [n]")
			return
		}
	}
	sub, err := sh.sv.Hub.Subscribe(args[0], 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer sub.Close()
	fmt.Printf("  waiting for %d events on %s (30s timeout; shell is blocked)\n", n, args[0])
	timeout := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				fmt.Println("  subscription reset (buffer overflow)")
				return
			}
			fmt.Printf("  %s\n", ev.Data)
		case <-timeout:
			fmt.Printf("  timed out after %d of %d events\n", i, n)
			return
		}
	}
}

// attach arms durability after .build when -waldir was given. The DDL
// recorded so far and the build names travel in the checkpoint metadata
// so .recover can rebuild the catalog and system without the script.
func (sh *shell) attach() {
	if sh.waldir == "" || sh.sys == nil {
		return
	}
	if has, err := wal.HasState(wal.OSFS{}, sh.waldir); err != nil {
		fmt.Println("wal:", err)
		return
	} else if has {
		fmt.Printf("  %s already holds durable state — use .recover to reopen it\n", sh.waldir)
		return
	}
	mgr, err := sh.sys.AttachDurability(wal.OSFS{}, sh.waldir, wal.Options{
		Meta: map[string]string{
			"ddl":   strings.Join(sh.ddl, "\n"),
			"build": strings.Join(sh.names, ","),
		},
	})
	if err != nil {
		fmt.Println("wal:", err)
		return
	}
	sh.mgr = mgr
	fmt.Printf("  durability attached: WAL in %s, checkpoint at LSN %d\n", sh.waldir, mgr.LastLSN())
}

// recover replaces the session's DB and system with the durable state
// in -waldir: DDL from the checkpoint metadata rebuilds the catalog on
// a fresh DB, the checkpoint restores relations and views, and the
// committed log tail replays through incremental maintenance.
func (sh *shell) recover() {
	if sh.waldir == "" {
		fmt.Println("no WAL directory (restart with -waldir DIR)")
		return
	}
	meta, err := wal.ReadMeta(wal.OSFS{}, sh.waldir)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if meta["ddl"] == "" || meta["build"] == "" {
		fmt.Println("checkpoint carries no ddl/build metadata; recover manually with the original script")
		return
	}
	db := mvmaint.Open()
	if err := db.Exec(meta["ddl"]); err != nil {
		fmt.Println("ddl replay:", err)
		return
	}
	names := strings.Split(meta["build"], ",")
	sys, mgr, err := mvmaint.Recover(db, names, mvmaint.Config{
		Workload: defaultWorkload(db),
		Method:   mvmaint.Exhaustive,
	}, wal.OSFS{}, sh.waldir, wal.Options{Meta: meta})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if sh.mgr != nil {
		sh.mgr.Close()
	}
	sh.db, sh.sys, sh.mgr = db, sys, mgr
	sh.names = names
	sh.ddl = strings.Split(meta["ddl"], "\n")
	fmt.Printf("  recovered to LSN %d: %d windows (%d txns) replayed, %d views recomputed\n",
		mgr.RecoveredLSN, mgr.ReplayedWindows, mgr.ReplayedTxns, mgr.RecomputedViews)
}

// printStats renders the global metrics registry (non-zero counters,
// gauges and histogram quantiles, sorted by name) plus the span
// self-time summary.
func printStats() {
	s := obs.Default.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for n, v := range s.Counters {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %d\n", n, s.Counters[n])
	}
	gnames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Printf("  %-44s %g\n", n, s.Gauges[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n, h := range s.Histograms {
		if h.Count != 0 {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		fmt.Printf("  %-44s count=%d sum=%d p50<=%d p99<=%d\n",
			n, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.99))
	}
	if out := obs.Trace.SummaryTable(); out != "" {
		fmt.Print(out)
	}
}

// printFlight shows the flight recorder's newest events, or with a path
// argument writes the full binary image for offline decoding.
func printFlight(args []string) {
	f := obs.Flight()
	if len(args) > 0 {
		if err := f.DumpToFile(args[0]); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("  flight image (%d events recorded) written to %s\n", f.Total(), args[0])
		return
	}
	evs := f.Events()
	if len(evs) == 0 {
		fmt.Println("  flight recorder empty")
		return
	}
	const tail = 32
	if len(evs) > tail {
		fmt.Printf("  ... %d older event(s) retained; showing newest %d of %d recorded\n",
			len(evs)-tail, tail, f.Total())
		evs = evs[len(evs)-tail:]
	}
	fmt.Print(obs.FormatEvents(evs, 0))
}

// defaultWorkload synthesizes one modify type per base relation (equal
// weights) when the user has not scripted anything fancier.
func defaultWorkload(db *mvmaint.DB) []*txn.Type {
	var out []*txn.Type
	for _, name := range db.Store.Names() {
		def, ok := db.Catalog.Get(name)
		if !ok || def.Schema.Len() == 0 {
			continue
		}
		last := def.Schema.Cols[def.Schema.Len()-1].Name
		out = append(out, &txn.Type{
			Name: ">" + name, Weight: 1,
			Updates: []txn.RelUpdate{{Rel: name, Kind: txn.Modify, Size: 1, Cols: []string{last}}},
		})
	}
	return out
}

// stripComments drops '--' line comments so statement classification
// (and DDL recording) sees the first real token, not a header comment.
func stripComments(sql string) string {
	lines := strings.Split(sql, "\n")
	out := lines[:0]
	for _, l := range lines {
		if t := strings.TrimSpace(l); t == "" || strings.HasPrefix(t, "--") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

func (sh *shell) runSQL(sql string) {
	sql = stripComments(sql)
	trimmed := strings.ToUpper(strings.TrimSpace(sql))
	switch {
	case strings.HasPrefix(trimmed, "SELECT"):
		res, err := sh.db.Query(sql)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(" ", res.Schema)
		for _, r := range res.Sorted() {
			fmt.Printf("  %s ×%d\n", r.Tuple, r.Count)
		}
		fmt.Printf("  (%d rows)\n", res.Card())
	case sh.sys != nil && (strings.HasPrefix(trimmed, "INSERT") ||
		strings.HasPrefix(trimmed, "DELETE") || strings.HasPrefix(trimmed, "UPDATE")):
		out, err := sh.sys.Execute(sql)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rep := out.Report
		fmt.Printf("  maintained: query I/O %d, view I/O %d (paper metric %d)\n",
			rep.QueryIO.Total(), rep.ViewIO.Total(), rep.PaperTotal())
		if sh.mgr != nil && !out.RolledBack {
			fmt.Printf("  durable at LSN %d\n", rep.LSN)
		}
		for _, v := range out.Violations {
			fmt.Println(" ", v)
		}
		if out.RolledBack {
			fmt.Println("  transaction REJECTED (nothing written)")
		}
	default:
		if err := sh.db.Exec(sql); err != nil {
			fmt.Println("error:", err)
			return
		}
		if strings.HasPrefix(trimmed, "CREATE") {
			sh.ddl = append(sh.ddl, strings.TrimSpace(sql))
		}
		fmt.Println("  ok")
	}
}
