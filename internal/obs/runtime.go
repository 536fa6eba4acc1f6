package obs

import (
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
	x := NewExposition(w)
	x.Family(prefix+"_goroutines", "gauge", "Current number of goroutines.")
	x.Int(int64(runtime.NumGoroutine()))
	x.Family(prefix+"_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	x.Int(int64(ms.HeapAlloc))
	x.Family(prefix+"_heap_sys_bytes", "gauge", "Bytes of heap obtained from the OS.")
	x.Int(int64(ms.HeapSys))
	x.Family(prefix+"_gc_cycles_total", "counter", "Completed GC cycles.")
	x.Int(int64(ms.NumGC))
	if mappedBytes >= 0 {
		x.Family(prefix+"_mapped_bundle_bytes", "gauge", "Bytes of model bundles currently memory-mapped.")
		x.Int(mappedBytes)
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
	if runtimeMetrics == nil {
		runtimeMetrics = func(io.Writer) {}
	}
	mux.Handle("/debug/runtime", MetricsHandler(runtimeMetrics))
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
