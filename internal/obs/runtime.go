package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// WriteRuntimeMetrics renders process runtime gauges in Prometheus
// exposition format under the given metric prefix: goroutine count, heap
// usage, GC cycles, and — when mappedBytes >= 0 — the bytes of model
// bundle data currently memory-mapped by the process (pass -1 when the
// process does not map bundles).
func WriteRuntimeMetrics(w io.Writer, prefix string, mappedBytes int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP %s_goroutines Current number of goroutines.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_goroutines gauge\n", prefix)
	fmt.Fprintf(w, "%s_goroutines %d\n", prefix, runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP %s_heap_alloc_bytes Bytes of allocated heap objects.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_heap_alloc_bytes gauge\n", prefix)
	fmt.Fprintf(w, "%s_heap_alloc_bytes %d\n", prefix, ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP %s_heap_sys_bytes Bytes of heap obtained from the OS.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_heap_sys_bytes gauge\n", prefix)
	fmt.Fprintf(w, "%s_heap_sys_bytes %d\n", prefix, ms.HeapSys)
	fmt.Fprintf(w, "# HELP %s_gc_cycles_total Completed GC cycles.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_gc_cycles_total counter\n", prefix)
	fmt.Fprintf(w, "%s_gc_cycles_total %d\n", prefix, ms.NumGC)
	if mappedBytes >= 0 {
		fmt.Fprintf(w, "# HELP %s_mapped_bundle_bytes Bytes of model bundles currently memory-mapped.\n", prefix)
		fmt.Fprintf(w, "# TYPE %s_mapped_bundle_bytes gauge\n", prefix)
		fmt.Fprintf(w, "%s_mapped_bundle_bytes %d\n", prefix, mappedBytes)
	}
}

// NewDebugMux builds the handler served on a -debug-addr listener:
// net/http/pprof under /debug/pprof/ plus a /debug/runtime endpoint
// rendered by the given function (typically a WriteRuntimeMetrics closure
// that knows the process's mapped-bundle bytes). The pprof handlers are
// registered explicitly rather than via the package's DefaultServeMux side
// effect, so importing obs never exposes profiling on a production
// listener by accident.
func NewDebugMux(runtimeMetrics func(io.Writer)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if runtimeMetrics != nil {
			runtimeMetrics(w)
		}
	})
	return mux
}

// ServeDebug starts the opt-in -debug-addr listener every command shares —
// NewDebugMux(runtimeMetrics) on addr, failures logged rather than fatal, so
// profiling a running process never touches its output — and returns the
// function that closes it. An empty addr starts nothing.
func ServeDebug(addr string, logger *slog.Logger, runtimeMetrics func(io.Writer)) (stop func()) {
	if addr == "" {
		return func() {}
	}
	srv := &http.Server{Addr: addr, Handler: NewDebugMux(runtimeMetrics), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		logger.Info("debug listener", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("debug listener failed", "addr", addr, "error", err)
		}
	}()
	return func() { srv.Close() }
}
