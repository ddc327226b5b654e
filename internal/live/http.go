package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/env"
	"repro/internal/metrics"
)

// DiagnosticsServer is the live runtime's HTTP side channel: Prometheus
// and JSON metrics, a health probe, and net/http/pprof. It runs on its
// own listener goroutine and never touches node state — everything it
// reads is lock-free snapshots.
type DiagnosticsServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string
}

// DiagSources supplies the optional observability payloads served by the
// diagnostics endpoint. Each writer renders one document; nil writers
// fall back to an empty-but-valid payload. The funcs come from the
// facade so this package needs no view of the sketch, decision, or trace
// types behind them.
type DiagSources struct {
	// BeforeScrape, when non-nil, runs at the top of every /metrics and
	// /metrics.json request — the hook where scrape-time gauges (tracer
	// drop counts, open sessions) are refreshed.
	BeforeScrape func()
	// Sketches writes the /sketches JSON document (the node's windowed
	// quantile sketches, see internal/stats).
	Sketches func(io.Writer) error
	// Decisions writes the /decisions JSON document (the RM audit ring).
	Decisions func(io.Writer) error
	// Trace writes the /trace JSONL document (the node's span events).
	Trace func(io.Writer) error
	// DHT writes the /dht JSON document (per-hosted-peer discovery
	// backend snapshots: routing table, store, directory cache).
	DHT func(io.Writer) error
}

// ServeDiagnostics starts the diagnostics endpoint on addr ("host:port",
// ":0" picks a free port). The registry may be nil, in which case
// /metrics serves an empty (but valid) exposition. Routes:
//
//	/metrics         Prometheus text format
//	/metrics.json    the same registry as JSON
//	/healthz         {"status":"ok","nodes":N,...}
//	/sketches        windowed quantile sketches as JSON (mergeable)
//	/decisions       the RM decision audit ring as JSON
//	/trace           span events as Chrome trace-event JSONL
//	/dht             discovery backend snapshots per hosted peer
//	/faults          live fault injection: GET lists rules+stats,
//	                 POST sets a rule (?from=&to=&drop=&dup=&delay=&sever=),
//	                 DELETE heals one pair or, without params, all
//	/record          flight recorder: GET reports status, POST ?dir=
//	                 starts recording, DELETE stops and flushes
//	/debug/pprof/*   standard Go profiling endpoints
func (rt *Runtime) ServeDiagnostics(addr string, reg *metrics.Registry) (*DiagnosticsServer, error) {
	return rt.ServeDiagnosticsOpts(addr, reg, DiagSources{})
}

// ServeDiagnosticsOpts is ServeDiagnostics with explicit observability
// sources backing the /sketches, /decisions, and /trace routes.
func (rt *Runtime) ServeDiagnosticsOpts(addr string, reg *metrics.Registry, src DiagSources) (*DiagnosticsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if src.BeforeScrape != nil {
			src.BeforeScrape()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if src.BeforeScrape != nil {
			src.BeforeScrape()
		}
		w.Header().Set("Content-Type", "application/json")
		if reg != nil {
			reg.WriteJSON(w)
		} else {
			w.Write([]byte("{\"families\":[]}\n"))
		}
	})
	mux.HandleFunc("/sketches", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if src.Sketches != nil {
			src.Sketches(w)
		} else {
			w.Write([]byte("{\"sketches\":[]}\n"))
		}
	})
	mux.HandleFunc("/decisions", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if src.Decisions != nil {
			src.Decisions(w)
		} else {
			w.Write([]byte("{\"total\":0,\"decisions\":[]}\n"))
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if src.Trace != nil {
			src.Trace(w)
		}
	})
	mux.HandleFunc("/dht", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if src.DHT != nil {
			src.DHT(w)
		} else {
			w.Write([]byte("{\"nodes\":[]}\n"))
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"nodes":          rt.NodeCount(),
			"uptime_seconds": rt.Uptime().Seconds(),
			"dropped":        rt.Dropped(),
		})
	})
	mux.HandleFunc("/faults", rt.handleFaults)
	mux.HandleFunc("/record", rt.handleRecord)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ds := &DiagnosticsServer{
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
		addr: ln.Addr().String(),
	}
	go ds.srv.Serve(ln)
	return ds, nil
}

// handleFaults is the live fault-injection control surface. GET returns
// the installed rules and impairment stats; POST installs one rule from
// query parameters (from/to default to the AnyNode wildcard, delay is a
// Go duration string); DELETE heals one pair, or every rule when no
// parameters are given.
func (rt *Runtime) handleFaults(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch r.Method {
	case http.MethodGet:
		fi := rt.FaultInjector()
		rules := fi.Rules()
		if rules == nil {
			rules = []FaultRuleEntry{}
		}
		json.NewEncoder(w).Encode(map[string]any{
			"rules": rules,
			"stats": fi.Stats(),
		})
	case http.MethodPost, http.MethodPut:
		q := r.URL.Query()
		from, err1 := faultQueryNode(q.Get("from"))
		to, err2 := faultQueryNode(q.Get("to"))
		drop, err3 := faultQueryFloat(q.Get("drop"))
		dup, err4 := faultQueryFloat(q.Get("dup"))
		var delay time.Duration
		var err5 error
		if s := q.Get("delay"); s != "" {
			delay, err5 = time.ParseDuration(s)
		}
		sever := q.Get("sever") == "true" || q.Get("sever") == "1"
		if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		rt.EnsureFaultInjector().Set(from, to,
			FaultRule{Drop: drop, Dup: dup, Delay: delay, Sever: sever})
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	case http.MethodDelete:
		fi := rt.FaultInjector()
		if fi == nil {
			json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
			return
		}
		q := r.URL.Query()
		if q.Get("from") == "" && q.Get("to") == "" {
			// Heal everything atomically and report how many rules went.
			cleared := fi.Clear()
			json.NewEncoder(w).Encode(map[string]any{"status": "ok", "cleared": cleared})
			return
		}
		from, err1 := faultQueryNode(q.Get("from"))
		to, err2 := faultQueryNode(q.Get("to"))
		if err := errors.Join(err1, err2); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		fi.Heal(from, to)
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleRecord is the flight-recorder control surface, backed by the
// facade's RecordControl hook. GET reports status; POST starts a
// recording into ?dir=; DELETE stops it and flushes the log. Without an
// installed hook (runtime built outside the facade) every method reports
// the recorder as unavailable.
func (rt *Runtime) handleRecord(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	ctl := rt.recordControl()
	if ctl == nil {
		w.WriteHeader(http.StatusNotImplemented)
		json.NewEncoder(w).Encode(map[string]string{"error": "no record control installed"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		json.NewEncoder(w).Encode(ctl.RecordStatus())
	case http.MethodPost, http.MethodPut:
		dir := r.URL.Query().Get("dir")
		if dir == "" {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "missing ?dir="})
			return
		}
		if err := ctl.Record(dir); err != nil {
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(ctl.RecordStatus())
	case http.MethodDelete:
		if err := ctl.StopRecord(); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(ctl.RecordStatus())
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// faultQueryNode parses a node ID query value; empty or "*" is the
// AnyNode wildcard.
func faultQueryNode(s string) (env.NodeID, error) {
	if s == "" || s == "*" {
		return AnyNode, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return AnyNode, fmt.Errorf("bad node id %q", s)
	}
	return env.NodeID(n), nil
}

// faultQueryFloat parses a probability query value; empty means zero.
func faultQueryFloat(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		return 0, fmt.Errorf("bad probability %q", s)
	}
	return v, nil
}

// Addr returns the bound address (useful with ":0").
func (ds *DiagnosticsServer) Addr() string { return ds.addr }

// Close stops the HTTP server and its listener.
func (ds *DiagnosticsServer) Close() error { return ds.srv.Close() }
