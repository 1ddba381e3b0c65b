package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"vmshortcut/internal/wire"
)

// statszReply is /statsz's JSON shape: the STATS frame's full reply
// (embedded, so its sections appear at the top level — /statsz is a
// strict superset of the wire STATS payload) plus process runtime
// information no wire client needs.
type statszReply struct {
	wire.StatsReply
	Runtime statszRuntime `json:"runtime"`
}

type statszRuntime struct {
	Goroutines int    `json:"goroutines"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	UptimeSec  int64  `json:"uptime_sec"`
	HeapAlloc  uint64 `json:"heap_alloc_bytes"`
	HeapSys    uint64 `json:"heap_sys_bytes"`
	NumGC      uint32 `json:"num_gc"`
}

// AdminHandler returns the admin HTTP surface served by the -admin
// listener:
//
//	/metrics       Prometheus text exposition of the metrics registry
//	/statsz        JSON superset of the STATS frame (adds runtime info)
//	/healthz       200 while the process serves HTTP at all (liveness)
//	/readyz        200 while Ready(): 503 while draining, and on a
//	               replica past its staleness bound (traffic gate)
//	/debug/pprof/  the standard pprof index, profiles, and traces
//
// The handler is safe to serve while the TCP listener drains — that is
// the point: /readyz flips to 503 at drain start while /metrics stays
// scrapable to the end.
func (s *Server) AdminHandler() http.Handler {
	started := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.metrics == nil {
			http.Error(w, "metrics are not enabled on this server", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		reply := statszReply{
			StatsReply: s.StatsReply(),
			Runtime: statszRuntime{
				Goroutines: runtime.NumGoroutine(),
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				NumCPU:     runtime.NumCPU(),
				GoVersion:  runtime.Version(),
				UptimeSec:  int64(time.Since(started).Seconds()),
				HeapAlloc:  ms.HeapAlloc,
				HeapSys:    ms.HeapSys,
				NumGC:      ms.NumGC,
			},
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reply)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "not ready (draining, or replica past its staleness bound)",
				http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
