package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/value"
)

var (
	obsHTTPReqs  = obs.C("server.http.requests")
	obsHTTPErrs  = obs.C("server.http.errors")
	obsReadNs    = obs.H("server.read.ns")
	obsTxnNs     = obs.H("server.txn.ns")
	obsTxnStmts  = obs.C("server.txn.statements")
	obsTxnReject = obs.C("server.txn.rolled_back")
)

// ExecResult is the outcome of one maintained statement, as reported by
// the Exec hook.
type ExecResult struct {
	LSN        uint64
	RolledBack bool
	Violations []string
}

// Config wires a Server. The Exec hook runs one DML statement through
// the owning system's maintained path; the server serializes calls to
// it (the maintenance pipeline is single-writer). Obs, when set, is
// mounted for /metrics, /spans and /debug/ (obs.Handler supplies it).
type Config struct {
	Hub  *Hub
	Exec func(stmt string) (ExecResult, error)
	Obs  http.Handler
}

// Server is the HTTP surface. Routes:
//
//	GET  /views                       served views + current epochs
//	GET  /view/{name}                 scan (limit/offset) or point (key=)
//	                                  reads; epoch= pins a snapshot
//	GET  /feed/{name}                 SSE changefeed (Last-Event-ID or
//	                                  after= resumes from the feed log)
//	POST /txn                         {"statements": [...]} batch
//	GET  /status                      hub stats
//	     /metrics /spans /debug/...   the obs handler
type Server struct {
	hub  *Hub
	exec func(stmt string) (ExecResult, error)
	mux  *http.ServeMux
}

// New builds the server and its routing table.
func New(cfg Config) *Server {
	s := &Server{hub: cfg.Hub, exec: cfg.Exec, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /views", s.handleViews)
	s.mux.HandleFunc("GET /view/{name}", s.handleView)
	s.mux.HandleFunc("GET /feed/{name}", s.handleFeed)
	s.mux.HandleFunc("POST /txn", s.handleTxn)
	s.mux.HandleFunc("GET /status", s.handleStatus)
	if cfg.Obs != nil {
		s.mux.Handle("/metrics", cfg.Obs)
		s.mux.Handle("/spans", cfg.Obs)
		s.mux.Handle("/spans/summary", cfg.Obs)
		s.mux.Handle("/debug/", cfg.Obs)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obsHTTPReqs.Inc()
	s.mux.ServeHTTP(w, r)
}

// Serve listens on addr and serves until the listener fails. It returns
// the bound address via the callback before blocking (useful with :0).
func (s *Server) Serve(addr string, bound func(string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if bound != nil {
		bound(ln.Addr().String())
	}
	srv := &http.Server{Handler: s}
	return srv.Serve(ln)
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	obsHTTPErrs.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleViews(w http.ResponseWriter, _ *http.Request) {
	type viewInfo struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
		LSN   uint64 `json:"lsn"`
		Rows  int    `json:"rows"`
	}
	var out []viewInfo
	for _, name := range s.hub.ViewNames() {
		ep, _ := s.hub.Current(name)
		out = append(out, viewInfo{Name: name, Epoch: ep.Seq, LSN: ep.LSN, Rows: len(ep.Rows)})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Views []viewInfo `json:"views"`
	}{Views: out})
}

// handleView serves one view read from a pinned epoch. Query params:
//
//	epoch=N   read the snapshot as of feed sequence N (410 if evicted)
//	key=[..]  point lookup by full tuple (JSON array typed by schema)
//	limit=N   scan page size (default 1000), offset=N scan start
func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { obsReadNs.Observe(time.Since(t0).Nanoseconds()) }()
	name := r.PathValue("name")
	q := r.URL.Query()

	var ep *Epoch
	if es := q.Get("epoch"); es != "" {
		seq, err := strconv.ParseUint(es, 10, 64)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "bad epoch %q", es)
			return
		}
		got, evicted, ok := s.hub.EpochAt(name, seq)
		if !ok {
			httpErr(w, http.StatusNotFound, "unknown view %q", name)
			return
		}
		if evicted {
			httpErr(w, http.StatusGone, "epoch %d evicted from retention", seq)
			return
		}
		ep = got
	} else {
		got, ok := s.hub.Current(name)
		if !ok {
			httpErr(w, http.StatusNotFound, "unknown view %q", name)
			return
		}
		ep = got
	}

	rows := ep.Rows
	total := len(rows)
	if ks := q.Get("key"); ks != "" {
		schema, _ := s.hub.Schema(name)
		tuple, err := tupleFromJSON([]byte(ks), schema)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		var enc value.KeyEncoder
		if row, ok := ep.Lookup(enc.Key(tuple)); ok {
			rows = []Row{row}
		} else {
			rows = nil
		}
		total = len(rows)
	} else {
		offset, err := intParam(q, "offset", 0)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		limit, err := intParam(q, "limit", 1000)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if offset < 0 {
			offset = 0
		}
		if offset > len(rows) {
			offset = len(rows)
		}
		rows = rows[offset:]
		if limit >= 0 && limit < len(rows) {
			rows = rows[:limit]
		}
	}

	// Hand-rolled body: deterministic (same epoch -> same bytes), and no
	// per-row interface boxing on the 10k-client read path.
	b := make([]byte, 0, 64+48*len(rows))
	b = append(b, `{"view":`...)
	b = appendJSONString(b, name)
	b = fmt.Appendf(b, `,"epoch":%d,"lsn":%d,"total":%d,"rows":[`, ep.Seq, ep.LSN, total)
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"tuple":`...)
		b = appendTupleJSON(b, row.Tuple)
		b = fmt.Appendf(b, `,"count":%d}`, row.Count)
	}
	b = append(b, `]}`...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// intParam reads an integer query parameter, def when it is absent.
func intParam(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	return n, nil
}

// maxTxnBody bounds a POST /txn body; a larger one gets 413.
const maxTxnBody = 1 << 20

func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if s.exec == nil {
		httpErr(w, http.StatusNotImplemented, "server is read-only (no exec hook)")
		return
	}
	t0 := time.Now()
	defer func() { obsTxnNs.Observe(time.Since(t0).Nanoseconds()) }()
	var req struct {
		Statements []string `json:"statements"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxTxnBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpErr(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxTxnBody)
			return
		}
		httpErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Statements) == 0 {
		httpErr(w, http.StatusBadRequest, "no statements")
		return
	}
	type resp struct {
		Applied    int      `json:"applied"`
		RolledBack int      `json:"rolled_back"`
		LSN        uint64   `json:"lsn"`
		Violations []string `json:"violations,omitempty"`
		Error      string   `json:"error,omitempty"`
	}
	var out resp
	for _, stmt := range req.Statements {
		res, err := s.exec(stmt)
		if err != nil {
			out.Error = err.Error()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(out)
			return
		}
		obsTxnStmts.Inc()
		out.Applied++
		if res.RolledBack {
			out.RolledBack++
			obsTxnReject.Inc()
		}
		if res.LSN > out.LSN {
			out.LSN = res.LSN
		}
		out.Violations = append(out.Violations, res.Violations...)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Hub Stats `json:"hub"`
	}{Hub: s.hub.Stats()})
}

// appendJSONString renders one JSON string with full escaping.
func appendJSONString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s)
	return append(dst, b...)
}
