package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sourcelda"
	"sourcelda/internal/dtrain"
	"sourcelda/internal/gateway"
	"sourcelda/internal/registry"
)

// parseEpochEvents reads the coordinator's telemetry JSONL.
func parseEpochEvents(r io.Reader) ([]dtrain.EpochEvent, error) {
	var out []dtrain.EpochEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var ev dtrain.EpochEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// accessLogger is what the daemons log through on their default flags
// (-log-format text -log-level info): every access-log line is formatted as
// they format it, then thrown away.
func accessLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// daemonConfig is the registry configuration cmd/srcldad builds from its
// default flags.
func daemonConfig(backendID string) registry.Config {
	infer := ServerInfer
	infer.Workers = runtime.GOMAXPROCS(0)
	return registry.Config{
		Infer: infer, TopN: 5, MaxDocs: 64, MaxBody: 1 << 20, AdminMaxBody: 256 << 20,
		QueueSize: 256, BatchWindow: 2 * time.Millisecond, MaxBatch: 32,
		DefaultModel: "default", Logger: accessLogger(), SlowRequest: time.Second, BackendID: backendID,
	}
}

// spanHandler records one span per request around next, under the operation
// id the load generator put in X-Request-Id.
func spanHandler(tr *Tracer, name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutPrefix(r.Header.Get("X-Request-Id"), opHeaderPrefix)
		op, err := strconv.ParseInt(id, 10, 64)
		if !ok || err != nil {
			next.ServeHTTP(w, r) // a health probe or a scrape, not a traced request
			return
		}
		end := tr.Begin(op, name, parent, 0)
		next.ServeHTTP(w, r)
		end()
	})
}

// replica is one in-process srcldad: registry, HTTP handler, listener.
type replica struct {
	reg *registry.Registry
	srv *httptest.Server
}

func (t *tracedRun) startReplica(id string) (*replica, error) {
	m, err := sourcelda.LoadBundleFile(t.bundle)
	if err != nil {
		return nil, err
	}
	reg := registry.New(daemonConfig(id))
	if _, err := reg.Load("default", "", m); err != nil {
		m.Close()
		reg.Close()
		return nil, err
	}
	return &replica{reg: reg, srv: httptest.NewServer(spanHandler(t.tr, "registry.handler", "gateway.handler", registry.NewServer(reg)))}, nil
}

func (rp *replica) close() {
	rp.srv.Close()
	rp.reg.Close()
}

func (rp *replica) scrape() (PromSeries, error) {
	var buf bytes.Buffer
	rp.reg.WritePrometheus(&buf)
	return ParseProm(&buf)
}

// servingStack replays the serving side in this process: the differential
// timings Engine → Inferrer → Registry → Server on single documents, then
// Phase A through a gateway and two replicas on loopback with every handler
// wrapped in a span, then the stack's own counters.
func (t *tracedRun) servingStack() error {
	r1, err := t.startReplica("r1")
	if err != nil {
		return err
	}
	defer r1.close()
	r2, err := t.startReplica("r2")
	if err != nil {
		return err
	}
	defer r2.close()

	// Layer differentials on the Phase A documents, one at a time, so each
	// call pays the dispatcher's full batch window like a lone request.
	texts := t.in.PhaseATexts[:min(60, len(t.in.PhaseATexts))]
	model, err := r1.reg.Model("default")
	if err != nil {
		return err
	}
	inf, err := model.NewInferrer(ServerInfer)
	if err != nil {
		return err
	}
	defer inf.Close()
	server := registry.NewServer(r1.reg)
	var direct, dispatched, served []time.Duration
	for i, text := range texts {
		op := t.tr.NewOp()
		end := t.tr.Begin(op, "sourcelda.infer", "registry.infer", i)
		_, err := inf.Infer(text)
		direct = append(direct, end())
		if err != nil {
			return err
		}
		end = t.tr.Begin(op, "registry.infer", "registry.serve_http", i)
		_, err = r1.reg.Infer(t.ctx, "", []string{text})
		dispatched = append(dispatched, end())
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(t.in.PhaseA[i]))
		rec := httptest.NewRecorder()
		end = t.tr.Begin(op, "registry.serve_http", "", i)
		server.ServeHTTP(rec, req)
		served = append(served, end())
		if rec.Code != http.StatusOK {
			return fmt.Errorf("Server.ServeHTTP answered %d: %s", rec.Code, rec.Body)
		}
	}
	t.ms("registry.dispatch_overhead_ms", medianDur(dispatched)-medianDur(direct), len(texts))
	t.set("registry.http_overhead_us", float64(medianDur(served)-medianDur(dispatched))/float64(time.Microsecond), "us", len(texts))

	gw, err := gateway.New(gateway.Config{
		Backends: []gateway.BackendSpec{{ID: "r1", URL: r1.srv.URL}, {ID: "r2", URL: r2.srv.URL}},
		Logger:   accessLogger(), // every other field: the zero value is srcldagw's flag default
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	gwSrv := httptest.NewServer(spanHandler(t.tr, "gateway.handler", "loadgen.request", gw))
	defer gwSrv.Close()

	before := []PromSeries{}
	for _, rp := range []*replica{r1, r2} {
		s, err := rp.scrape()
		if err != nil {
			return err
		}
		before = append(before, s)
	}

	lg := NewLoadgen(MaxClients())
	defer lg.Close()
	lg.Trace = t.tr
	phaseA := calls(gwSrv.URL+"/v1/infer", t.in.PhaseA)
	stA := Summarize(lg.Open(t.ctx, phaseA[:min(len(phaseA), minPhaseA)], t.spec.InferRate))
	t.phaseOps("traced phase A", stA)
	t.set("loadgen.sent", float64(stA.Sent), "count", 0)
	t.set("loadgen.ok", float64(stA.OK), "count", 0)
	t.set("loadgen.failed", float64(stA.Failed), "count", 0)
	t.set("loadgen.lateness_p99_ms", stA.LatenessP99MS, "ms", stA.Sent)
	t.set("loadgen.infer_p50_ms", stA.P50.Value, "ms", stA.P50.N)
	t.set("loadgen.infer_tail_ms", stA.Tail.Value, "ms", stA.Tail.N)
	t.set("loadgen.infer_tail_percentile", stA.Tail.P*100, "%", stA.Tail.N)
	t.set("loadgen.infer_max_ms", stA.MaxMS, "ms", stA.OK)

	// The replicas' own stage histograms over the replayed traffic.
	reg := PromSeries{}
	for i, rp := range []*replica{r1, r2} {
		s, err := rp.scrape()
		if err != nil {
			return err
		}
		for k, v := range s.Sub(before[i]) {
			reg[k] += v
		}
	}
	for _, stage := range []string{"queue_wait", "batch_assembly", "infer", "render"} {
		t.set("registry."+stage+"_ms_mean", 1000*reg.HistMean("srcldad_stage_latency_seconds", `stage="`+stage+`"`), "ms",
			int(reg.Sum("srcldad_stage_latency_seconds_count", `stage="`+stage+`"`)))
	}
	batches := reg.Sum("srcldad_batches_total")
	t.set("registry.batch_size_mean", reg.Sum("srcldad_batched_documents_total")/max(batches, 1), "count", int(batches))
	t.set("registry.shed_total", reg.Sum("srcldad_requests_shed_total"), "count", 0)

	gws, err := t.get(gwSrv.URL + "/metrics")
	if err != nil {
		return err
	}
	t.set("gateway.upstream_ms_mean", 1000*gws.HistMean("srcldagw_backend_latency_seconds"), "ms", int(gws.Sum("srcldagw_backend_latency_seconds_count")))
	t.set("gateway.self_ms_mean", 1000*gws.HistMean("srcldagw_stage_latency_seconds"), "ms", int(gws.Sum("srcldagw_stage_latency_seconds_count")))
	t.set("gateway.retries", gws.Sum("srcldagw_retries_total"), "count", 0)
	t.set("gateway.hedges", gws.Sum("srcldagw_hedges_total"), "count", 0)
	t.set("gateway.shed", gws.Sum("srcldagw_requests_shed_total"), "count", 0)
	tries := gws.Sum("srcldagw_backend_requests_total")
	share := max(gws.Sum("srcldagw_backend_requests_total", `backend="r1"`), gws.Sum("srcldagw_backend_requests_total", `backend="r2"`))
	t.set("gateway.backend_share_max", share/max(tries, 1), "ratio", int(tries))

	// Phase B through the same stack, closed loop: the ungated
	// infer_docs_per_s of the end-to-end run, seen from inside one process.
	callsB := calls(gwSrv.URL+"/v1/infer", t.in.PhaseB)
	callsB = callsB[:min(len(callsB), 6)]
	outB, wallB := lg.Closed(t.ctx, callsB)
	stB := Summarize(outB)
	t.phaseOps("traced phase B", stB)
	t.set("loadgen.phase_b_docs_per_s", float64(stB.OK*PhaseBDocs)/wallB.Seconds(), "docs/s", stB.OK*PhaseBDocs)

	// The proxy hop by difference: the same requests alternated between the
	// gateway and the replica the gateway routes to, one client, so both
	// sides see the same box from one moment to the next.
	lg.Trace = nil
	lg1 := NewLoadgen(1)
	defer lg1.Close()
	target := r1.srv.URL
	if gws.Sum("srcldagw_backend_requests_total", `backend="r2"`) > gws.Sum("srcldagw_backend_requests_total", `backend="r1"`) {
		target = r2.srv.URL
	}
	var viaGW, viaReplica []time.Duration
	for _, b := range t.in.PhaseA[:min(80, len(t.in.PhaseA))] {
		for _, side := range []struct {
			url  string
			dest *[]time.Duration
		}{{gwSrv.URL, &viaGW}, {target, &viaReplica}} {
			start := time.Now()
			if _, _, err := lg1.post(t.ctx, Call{URL: side.url + "/v1/infer", Body: b}, 0); err != nil {
				return err
			}
			*side.dest = append(*side.dest, time.Since(start))
		}
	}
	t.ms("gateway.overhead_p50_ms", medianDur(viaGW)-medianDur(viaReplica), len(viaGW))
	return nil
}

// learner replays continuous learning in this process: AppendDocs on the
// feed documents with nothing else running, then the registry's learner,
// watcher and HTTP feed path on the same chain, scraped like the daemon.
func (t *tracedRun) learner() error {
	rt, err := sourcelda.LoadChainRuntimeFile(t.in.ChainPath)
	if err != nil {
		return err
	}
	defer rt.Close()

	op := t.tr.NewOp()
	var appended int
	var appendTime time.Duration
	texts := t.in.FeedTexts[:min(len(t.in.FeedTexts), 12*FeedBatchDocs)]
	for i := 0; i < len(texts); i += 2 * FeedBatchDocs { // the learner folds in up to 32 at a time
		batch := texts[i:min(i+2*FeedBatchDocs, len(texts))]
		end := t.tr.Begin(op, "core.append_docs", "", i)
		n, err := rt.Append(batch, 3)
		appendTime += end()
		if err != nil {
			return err
		}
		appended += n
	}
	t.set("core.append_docs_per_s", float64(appended)/appendTime.Seconds(), "docs/s", appended)

	reg := registry.New(daemonConfig(""))
	defer reg.Close()
	modelsDir := filepath.Join(t.dir, "trace-models")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		return err
	}
	if err := reg.AttachLearner("default", rt, registry.LearnerConfig{QueueSize: 256, RepublishEvery: 64, ModelsDir: modelsDir}); err != nil {
		return err
	}
	w := registry.NewWatcher(reg, modelsDir, 2*time.Second)
	if err := w.Scan(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(t.ctx)
	defer cancel()
	go w.Run(ctx)
	srv := httptest.NewServer(registry.NewServer(reg))
	defer srv.Close()

	// A third of the feed is enough for the learner's own counters.
	if _, err := t.feed(srv.URL, t.in.Feed[:min(len(t.in.Feed), max(8, len(t.in.Feed)/3))]); err != nil {
		return err
	}
	s, err := t.get(srv.URL + "/metrics")
	if err != nil {
		return err
	}
	t.set("registry.feed_update_ms_mean", 1000*s.HistMean("srcldad_feed_update_seconds"), "ms", int(s.Sum("srcldad_feed_update_seconds_count")))
	t.set("registry.feed_republishes", s.Sum("srcldad_feed_republish_total"), "count", 0)
	t.set("registry.feed_shed_429", s.Sum("srcldad_feed_shed_total"), "count", 0)
	t.set("registry.swaps", s.Sum("srcldad_model_swaps_total"), "count", 0)
	return nil
}
