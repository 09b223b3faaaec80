package mvmaint

import (
	"fmt"
	"sync"

	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ServeOptions configures System.NewServing.
type ServeOptions struct {
	// FeedDir, when non-empty, persists the changefeed journal there so
	// SSE subscribers can resume across server restarts. Empty keeps
	// the feed in memory only (live subscriptions still work; resume
	// replays nothing).
	FeedDir string
	// FS overrides the feed log's filesystem (default the OS).
	FS wal.FS
	// Retain bounds each view's epoch retention ring (default 64).
	Retain int
	// SubscriberBuffer is the per-SSE-subscriber ring size (default 256).
	SubscriberBuffer int
}

// Serving is a System's network surface: the snapshot/changefeed hub
// wired to the maintainer's window hook, and the HTTP server over it.
type Serving struct {
	Hub    *server.Hub
	Server *server.Server
	sys    *System

	// execMu serializes POST /txn statements into the single-writer
	// maintenance pipeline.
	execMu sync.Mutex
}

// NewServing builds the serving stack for a System: every declared
// non-assertion view becomes a served view (snapshot epochs + SSE
// changefeed), POST /txn feeds the maintained execution path, and the
// obs handlers are mounted. It installs the maintainer's window hook;
// call Close to detach it.
//
// Call NewServing while the system is quiescent (no concurrent
// Execute): the hub seeds its epoch-0 snapshots from view storage,
// which has no read locks.
func (s *System) NewServing(opts ServeOptions) (*Serving, error) {
	var feed *wal.FeedLog
	if opts.FeedDir != "" {
		fsys := opts.FS
		if fsys == nil {
			fsys = wal.OSFS{}
		}
		var err error
		feed, err = wal.OpenFeedLog(fsys, opts.FeedDir, wal.Options{})
		if err != nil {
			return nil, err
		}
	}
	var sources []server.ViewSource
	for id, name := range s.names {
		if s.DB.IsAssertion(name) {
			continue
		}
		for _, e := range s.DAG.Roots {
			if e.ID != id {
				continue
			}
			rel, ok := s.M.ViewRel(e)
			if !ok {
				return nil, fmt.Errorf("mvmaint: view %q is not materialized", name)
			}
			sources = append(sources, server.ViewSource{
				Name:   name,
				Schema: rel.Def.Schema,
				EqID:   e.ID,
				Rel:    rel,
			})
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("mvmaint: no non-assertion views to serve")
	}
	hub, err := server.NewHub(server.HubConfig{
		Views:            sources,
		Feed:             feed,
		Retain:           opts.Retain,
		SubscriberBuffer: opts.SubscriberBuffer,
	})
	if err != nil {
		if feed != nil {
			feed.Close()
		}
		return nil, err
	}
	sv := &Serving{Hub: hub, sys: s}
	s.M.SetWindowHook(hub.OnWindow)
	sv.Server = server.New(server.Config{
		Hub: hub,
		Txn: sv.execRequest,
		Obs: obs.Handler(nil, nil),
	})
	return sv, nil
}

// execRequest runs one POST /txn request through the maintained path
// as one commit (maintain.Maintainer.Group), serialized: the pipeline is
// single-writer, and HTTP handlers are not. Each statement is its own
// window with its own verdict; the request is logged with one fsync and
// published as one epoch. A statement's error ends the request, and the
// statements before it are committed and published all the same.
func (sv *Serving) execRequest(stmts []string) (server.TxnResult, error) {
	sv.execMu.Lock()
	defer sv.execMu.Unlock()
	var res server.TxnResult
	lsn, err := sv.sys.M.Group(func() error {
		for _, stmt := range stmts {
			out, err := sv.sys.Execute(stmt)
			if err != nil {
				return err
			}
			res.Applied++
			if out.RolledBack {
				res.RolledBack++
			}
			for _, v := range out.Violations {
				res.Violations = append(res.Violations, v.String())
			}
		}
		return nil
	})
	res.LSN = lsn
	return res, err
}

// ExecuteTxn runs a pre-built transaction through the maintained path
// under the serving lock — the programmatic sibling of POST /txn for
// in-process writers (benchmarks, the shell) that share a Serving with
// HTTP traffic.
func (sv *Serving) ExecuteTxn(t *txn.Type, updates map[string]*delta.Delta) (*maintain.Report, error) {
	sv.execMu.Lock()
	defer sv.execMu.Unlock()
	out, err := sv.sys.ExecuteTxn(t, updates)
	if err != nil {
		return nil, err
	}
	return out.Report, nil
}

// Close detaches the window hook and shuts the hub (and feed log) down.
func (sv *Serving) Close() error {
	sv.sys.M.SetWindowHook(nil)
	return sv.Hub.Close()
}
