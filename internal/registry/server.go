package registry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"sourcelda"
	"sourcelda/internal/gateway"
	"sourcelda/internal/obs"
	"sourcelda/internal/persist"
)

// requestIDHeader is the request-identity header: accepted from the client
// when well-formed, generated otherwise, echoed on every response, and the
// correlation key across the access log and error bodies.
const requestIDHeader = "X-Request-Id"

// backendIDHeader names the replica that served a response. Set on every
// response (including errors) when Config.BackendID is non-empty, so a
// gateway fronting several replicas can attribute each answer to a backend.
const backendIDHeader = "X-Backend"

// Server is the registry's HTTP surface: inference and topic routes (both
// the default-model aliases and the per-model forms), the model admin API,
// Prometheus metrics and health. See docs/API.md for the full reference.
type Server struct {
	reg   *Registry
	mux   *http.ServeMux
	start time.Time
}

// NewServer wraps the registry with the HTTP API.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/models/{name}/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/feed", s.handleFeed)
	s.mux.HandleFunc("POST /v1/models/{name}/feed", s.handleFeed)
	s.mux.HandleFunc("GET /v1/topics", s.handleTopics)
	s.mux.HandleFunc("GET /v1/models/{name}/topics", s.handleTopics)
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleGetModel)
	s.mux.HandleFunc("PUT /v1/models/{name}", s.handlePutModel)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleDeleteModel)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(reg.WritePrometheus))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// ServeHTTP implements http.Handler. Every request passes through the
// tracing middleware: resolve or mint an X-Request-Id, echo it on the
// response before the handler runs (so even error responses carry it),
// carry a span context alongside the request, and emit one access-log event
// per request with the per-stage latency breakdown — at warning level when
// the request exceeded the slow-request threshold.
//
// The span rides inside the statusWriter rather than the request context:
// handlers recover it with traceFor(w), which costs one type assertion
// instead of a context allocation plus a full http.Request clone per
// request (context injection roughly doubled the middleware's overhead).
// Library callers without an http.ResponseWriter still propagate traces
// through the context — see Registry.Infer.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Replica identity rides on every response: the header is how a
	// gateway's audit trail and an operator's curl agree on which replica
	// answered.
	if id := s.reg.cfg.BackendID; id != "" {
		w.Header().Set(backendIDHeader, id)
	}
	id := r.Header.Get(requestIDHeader)
	if !obs.ValidRequestID(id) {
		id = obs.NewRequestID()
	}
	w.Header().Set(requestIDHeader, id)
	// One allocation covers both per-request tracking structs: the status
	// capture and the span context live and die together.
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	sw.trace.ID = id
	tr := &sw.trace
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(start)

	slow := s.reg.cfg.SlowRequest
	isSlow := slow > 0 && dur >= slow
	level, msg := slog.LevelInfo, "request"
	if isSlow {
		level, msg = slog.LevelWarn, "slow request"
	}
	lg := s.reg.cfg.Logger
	// Attribute assembly is guarded by Enabled so a discarded or
	// level-filtered access log costs nothing on the fast path.
	if !lg.Enabled(r.Context(), level) {
		return
	}
	attrs := []any{
		"request_id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"duration_ms", durMillis(dur),
	}
	if model := tr.Model(); model != "" {
		d := tr.Durations()
		attrs = append(attrs,
			"model", model,
			"infer_ms", durMillis(d[obs.StageInfer]),
			"render_ms", durMillis(d[obs.StageRender]),
		)
	}
	if isSlow {
		attrs = append(attrs, "threshold_ms", durMillis(slow))
	}
	lg.Log(r.Context(), level, msg, attrs...)
}

// durMillis renders a duration as fractional milliseconds — the access
// log's one latency unit, chosen over Duration.String so log pipelines can
// aggregate the field numerically.
func durMillis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusWriter captures the first status code a handler writes, for the
// access log, and carries the request's trace so the middleware allocates
// once per request.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	trace  obs.Trace
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(p)
}

// traceFor recovers the span the middleware attached to the response
// writer. Nil when a handler runs on the bare mux, without the middleware
// (the allocation gate's baseline) — every Trace method is nil-safe, so
// callers use the result unconditionally.
func traceFor(w http.ResponseWriter) *obs.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return &sw.trace
	}
	return nil
}

// inferRequest is the POST /v1/infer body: exactly one of Text or
// Documents.
type inferRequest struct {
	Text      *string  `json:"text,omitempty"`
	Documents []string `json:"documents,omitempty"`
}

// decodeInferRequest parses and validates an inference body, returning the
// documents to score and whether the caller used the single-text form.
// Every rejection is a client error (4xx); it must never panic on malformed
// input (fuzzed).
func decodeInferRequest(body []byte, maxDocs int) (texts []string, single bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req inferRequest
	if err := dec.Decode(&req); err != nil {
		return nil, false, fmt.Errorf("invalid JSON body: %w", err)
	}
	// Trailing garbage after the JSON value is a malformed request.
	if dec.More() {
		return nil, false, errors.New("invalid JSON body: trailing data")
	}
	switch {
	case req.Text != nil && req.Documents != nil:
		return nil, false, errors.New(`provide exactly one of "text" or "documents"`)
	case req.Text != nil:
		if strings.TrimSpace(*req.Text) == "" {
			return nil, false, errors.New(`"text" must be non-empty`)
		}
		return []string{*req.Text}, true, nil
	case req.Documents != nil:
		if len(req.Documents) == 0 {
			return nil, false, errors.New(`"documents" must be non-empty`)
		}
		if len(req.Documents) > maxDocs {
			return nil, false, fmt.Errorf(`"documents" has %d entries; limit is %d`, len(req.Documents), maxDocs)
		}
		for i, d := range req.Documents {
			if strings.TrimSpace(d) == "" {
				return nil, false, fmt.Errorf("document %d is empty", i)
			}
		}
		return req.Documents, false, nil
	default:
		return nil, false, errors.New(`provide "text" or "documents"`)
	}
}

// topicJSON is one labeled topic weight in a response.
type topicJSON struct {
	Index  int     `json:"index"`
	Label  string  `json:"label"`
	Source bool    `json:"source"`
	Weight float64 `json:"weight"`
}

// inferredDocJSON is one document's scored mixture.
type inferredDocJSON struct {
	// TopTopics are the heaviest topics, descending.
	TopTopics []topicJSON `json:"top_topics"`
	// Mixture is the full distribution in model-topic order (aligned with
	// the model's /topics endpoint).
	Mixture       []float64 `json:"mixture"`
	KnownTokens   int       `json:"known_tokens"`
	UnknownTokens int       `json:"unknown_tokens"`
}

// modelName extracts the request's model name: the {name} path segment, or
// "" for the default-model alias routes.
func modelName(r *http.Request) string { return r.PathValue("name") }

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	name := modelName(r)
	e, err := s.reg.lookup(name)
	if err != nil {
		writeError(w, r, http.StatusNotFound, modelNotFoundMsg(name, s.reg))
		return
	}
	// Record the resolved name (not the raw path segment, which is "" on the
	// default-model alias routes) so the access log names the serving model.
	tr := traceFor(w)
	tr.SetModel(e.name)
	// Everything below reports its terminal status into the model's
	// metrics, including the request latency.
	startReq := time.Now()
	code := s.serveInfer(w, r, e, tr)
	e.metrics.recordRequest(code, time.Since(startReq))
}

// serveInfer handles one inference request against a resolved model entry
// and returns the HTTP status it wrote. tr is the request's span (nil on
// the bare mux).
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request, e *entry, tr *obs.Trace) int {
	cfg := s.reg.cfg
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cfg.MaxBody))
	if err != nil {
		// Only the MaxBytesReader limit means the body was oversized; any
		// other read failure (client disconnect mid-upload, transport
		// error) must not claim 413.
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &maxErr):
			return writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		case r.Context().Err() != nil:
			// 499 "client closed request" (nginx convention): the client
			// went away mid-read, so no standard 4xx applies and nobody is
			// listening anyway — but access logs should not blame body size.
			return writeError(w, r, 499, "client closed request")
		default:
			return writeError(w, r, http.StatusBadRequest, "failed to read request body")
		}
	}
	texts, single, err := decodeInferRequest(body, cfg.MaxDocs)
	if err != nil {
		return writeError(w, r, http.StatusBadRequest, err.Error())
	}
	results, err := e.enqueue(r.Context(), tr, texts)
	switch {
	case errors.Is(err, ErrOverloaded):
		e.metrics.recordShed()
		return writeError(w, r, http.StatusServiceUnavailable, ErrOverloaded.Error())
	case errors.Is(err, ErrUnloaded):
		return writeError(w, r, http.StatusServiceUnavailable, ErrUnloaded.Error())
	case err != nil && r.Context().Err() != nil:
		// The caller disconnected before its documents were scored — the
		// same client-gone condition as the body-read path, and the same
		// 499: it must not count as a server error.
		return writeError(w, r, 499, "client closed request")
	case err != nil:
		return writeError(w, r, http.StatusInternalServerError, err.Error())
	}
	renderStart := time.Now()
	docs := make([]inferredDocJSON, len(results))
	for i, res := range results {
		if res.Doc == nil {
			// A document whose tokens are all outside the vocabulary of the
			// build that scored it: no fold-in ran for it, so the 422 cost one
			// tokenization.
			return writeError(w, r, http.StatusUnprocessableEntity,
				fmt.Sprintf("document %d has no tokens in the model vocabulary", i))
		}
		// Render with the build that scored the document: labels and
		// mixture widths belong to it, whatever a hot swap activated since.
		docs[i] = renderDoc(res.Model, res.Doc, cfg.TopN)
	}
	var status int
	if single {
		status = writeJSON(w, http.StatusOK, map[string]any{"result": docs[0]})
	} else {
		status = writeJSON(w, http.StatusOK, map[string]any{"results": docs})
	}
	// The render stage spans topic lookup through response serialization,
	// recorded once per successful request (error paths render no result).
	renderDur := time.Since(renderStart)
	e.metrics.recordStage(obs.StageRender, renderDur)
	tr.Add(obs.StageRender, renderDur)
	return status
}

// handleFeed accepts documents for a model's continuous-learning loop. The
// body shape matches the infer endpoint ({"text": ...} or
// {"documents": [...]});
// the whole batch is accepted (202) or rejected — 429 with Retry-After when
// the ingest queue is full, 409 when the model serves but has no learner,
// 404 when the model is unknown entirely.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	name := modelName(r)
	if name == "" {
		name = s.reg.DefaultModel()
	}
	traceFor(w).SetModel(name)
	cfg := s.reg.cfg
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cfg.MaxBody))
	if err != nil {
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &maxErr):
			writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
		case r.Context().Err() != nil:
			writeError(w, r, 499, "client closed request")
		default:
			writeError(w, r, http.StatusBadRequest, "failed to read request body")
		}
		return
	}
	texts, _, err := decodeInferRequest(body, cfg.MaxDocs)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	switch err := s.reg.Feed(name, texts); {
	case err == nil:
	case errors.Is(err, ErrNoLearner):
		if _, merr := s.reg.Model(name); merr != nil {
			writeError(w, r, http.StatusNotFound, modelNotFoundMsg(name, s.reg))
		} else {
			writeError(w, r, http.StatusConflict,
				fmt.Sprintf("model %q does not accept fed documents (no learning chain attached)", name))
		}
		return
	case errors.Is(err, ErrOverloaded):
		// Whole-second Retry-After, floored at 1s: one updater batch is the
		// natural drain quantum, so "try again in a second" is honest.
		w.Header().Set("Retry-After", strconv.Itoa(gateway.RetryAfterSeconds(time.Second)))
		writeError(w, r, http.StatusTooManyRequests, "feed queue is full")
		return
	default:
		writeError(w, r, http.StatusServiceUnavailable, err.Error())
		return
	}
	depth := 0
	if fi, err := s.reg.FeedInfo(name); err == nil {
		depth = fi.QueueDepth
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"accepted":    len(texts),
		"queue_depth": depth,
	})
}

func renderDoc(m *sourcelda.Model, res *sourcelda.DocumentInference, topN int) inferredDocJSON {
	top := m.TopTopics(res, topN)
	out := inferredDocJSON{
		TopTopics:     make([]topicJSON, len(top)),
		Mixture:       res.Topics,
		KnownTokens:   res.KnownTokens,
		UnknownTokens: res.UnknownTokens,
	}
	for i, tp := range top {
		out.TopTopics[i] = topicJSON{
			Index: tp.Index, Label: tp.Label, Source: tp.IsSourceTopic, Weight: tp.Weight,
		}
	}
	return out
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	name := modelName(r)
	e, err := s.reg.lookup(name)
	if err != nil {
		writeError(w, r, http.StatusNotFound, modelNotFoundMsg(name, s.reg))
		return
	}
	traceFor(w).SetModel(e.name)
	v, byIndex, ok := e.topics()
	if !ok {
		writeError(w, r, http.StatusServiceUnavailable, ErrUnloaded.Error())
		return
	}
	type topicInfo struct {
		Index    int      `json:"index"`
		Label    string   `json:"label"`
		Source   bool     `json:"source"`
		Weight   float64  `json:"weight"`
		TopWords []string `json:"top_words"`
	}
	topics := make([]topicInfo, len(byIndex))
	for i, tp := range byIndex {
		topics[i] = topicInfo{
			Index:    tp.Index,
			Label:    tp.Label,
			Source:   tp.IsSourceTopic,
			Weight:   tp.Weight,
			TopWords: tp.TopWords(10),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":   e.name,
		"version": v.version,
		"topics":  topics,
	})
}

// modelInfoJSON is one model's listing entry on the admin API.
type modelInfoJSON struct {
	Name          string  `json:"name"`
	Version       string  `json:"version"`
	LoadedAt      string  `json:"loaded_at,omitempty"`
	Topics        int     `json:"topics"`
	Mapped        bool    `json:"mapped"`
	MappedBytes   int64   `json:"mapped_bytes,omitempty"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	OpenSessions  int     `json:"open_sessions"`
	Requests      uint64  `json:"requests"`
	Shed          uint64  `json:"shed"`
	Swaps         uint64  `json:"swaps"`
	LatencyP50    float64 `json:"latency_p50_seconds"`
	LatencyP99    float64 `json:"latency_p99_seconds"`
	ChainDigest   string  `json:"chain_digest,omitempty"`
	TrainedAt     string  `json:"trained_at,omitempty"`
	BundleName    string  `json:"bundle_name,omitempty"`
	BundleVersion string  `json:"bundle_version,omitempty"`
}

func infoToJSON(mi ModelInfo) modelInfoJSON {
	out := modelInfoJSON{
		Name:          mi.Name,
		Version:       mi.Version,
		Topics:        mi.Topics,
		Mapped:        mi.Mapped,
		MappedBytes:   mi.MappedBytes,
		QueueDepth:    mi.QueueDepth,
		QueueCapacity: mi.QueueCapacity,
		OpenSessions:  mi.OpenSessions,
		Requests:      mi.Stats.Requests,
		Shed:          mi.Stats.Shed,
		Swaps:         mi.Stats.Swaps,
		LatencyP50:    mi.Stats.LatencyP50,
		LatencyP99:    mi.Stats.LatencyP99,
		ChainDigest:   mi.Bundle.ChainDigest,
		BundleName:    mi.Bundle.Name,
		BundleVersion: mi.Bundle.Version,
	}
	if !mi.LoadedAt.IsZero() {
		out.LoadedAt = mi.LoadedAt.UTC().Format(time.RFC3339)
	}
	if !mi.Bundle.TrainedAt.IsZero() {
		out.TrainedAt = mi.Bundle.TrainedAt.UTC().Format(time.RFC3339)
	}
	return out
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.ListInfo()
	models := make([]modelInfoJSON, len(infos))
	for i, mi := range infos {
		models[i] = infoToJSON(mi)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"default_model": s.reg.DefaultModel(),
		"models":        models,
	})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	name := modelName(r)
	mi, err := s.reg.Info(name)
	if err != nil {
		writeError(w, r, http.StatusNotFound, modelNotFoundMsg(name, s.reg))
		return
	}
	writeJSON(w, http.StatusOK, infoToJSON(mi))
}

// handlePutModel loads (or hot-swaps) a model: the request body IS the
// bundle, exactly as written by srclda -save-bundle / sourcelda.SaveBundle
// (gzip JSON, plain JSON, or the flat format — the loader sniffs by magic).
// A flat upload is spooled to a temporary file and served memory-mapped, so
// a pushed flat model keeps the format's zero-copy properties. `?version=`
// overrides the version recorded for the build; otherwise the bundle's
// embedded version, then a process-unique fallback, is used.
func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	name := modelName(r)
	// Validate the name before consuming the body: an invalid name must not
	// cost a potentially hundreds-of-MB upload.
	if !validName.MatchString(name) {
		writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("invalid model name %q (want %s)", name, validName))
		return
	}
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.reg.cfg.AdminMaxBody))
	var m *sourcelda.Model
	var err error
	if magic, perr := body.Peek(len(persist.FlatBundleMagic)); perr == nil && persist.IsFlatBundle(magic) {
		m, err = spoolFlatBundle(body)
	} else {
		m, err = sourcelda.LoadBundle(body)
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("bundle exceeds %d bytes", maxErr.Limit))
			return
		}
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("invalid bundle: %v", err))
		return
	}
	res, err := s.reg.Load(name, r.URL.Query().Get("version"), m)
	if err != nil {
		m.Close()
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	status := http.StatusCreated
	if res.Swapped {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{
		"model":            res.Name,
		"version":          res.Version,
		"swapped":          res.Swapped,
		"previous_version": res.PreviousVersion,
	})
}

// spoolFlatBundle lands an uploaded flat bundle in a temporary file and
// memory-maps it from there: the spool is one sequential write, after which
// the model serves zero-copy from the page cache exactly as a bundle loaded
// from -models-dir would. The file is unlinked immediately after mapping —
// on unix the mapping keeps the pages alive, so the model outlives the
// directory entry and nothing is left behind on shutdown.
func spoolFlatBundle(body io.Reader) (*sourcelda.Model, error) {
	tmp, err := os.CreateTemp("", "srcldad-flat-*.bundle")
	if err != nil {
		return nil, fmt.Errorf("spool flat bundle: %w", err)
	}
	path := tmp.Name()
	defer os.Remove(path)
	if _, err := io.Copy(tmp, body); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("spool flat bundle: %w", err)
	}
	return sourcelda.LoadBundleFile(path)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := modelName(r)
	if err := s.reg.Unload(name); err != nil {
		writeError(w, r, http.StatusNotFound, modelNotFoundMsg(name, s.reg))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"unloaded": name})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	out := map[string]any{
		"status":         "ok",
		"models":         len(names),
		"default_model":  s.reg.DefaultModel(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	// Backward-compatible single-model fields describing the default model,
	// when one is loaded (the pre-registry daemon reported exactly these).
	if mi, err := s.reg.Info(""); err == nil {
		out["topics"] = mi.Topics
		out["queue_depth"] = mi.QueueDepth
		out["queue_capacity"] = mi.QueueCapacity
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReady is the readiness probe, distinct from /healthz liveness: it
// answers 503 until at least one model is loaded and serving, then 200. A
// gateway or load balancer keys routing on this endpoint so a cold replica
// — process up, models directory still loading — never receives traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	if len(names) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unavailable",
			"reason": "no models loaded",
		})
		return
	}
	_, defErr := s.reg.Info("")
	writeJSON(w, http.StatusOK, map[string]any{
		"status":               "ready",
		"models":               len(names),
		"default_model":        s.reg.DefaultModel(),
		"default_model_loaded": defErr == nil,
	})
}

// modelNotFoundMsg names the missing model and lists what is loaded, so a
// 404 is self-diagnosing.
func modelNotFoundMsg(name string, reg *Registry) string {
	if name == "" {
		name = reg.DefaultModel()
	}
	loaded := reg.Names()
	if len(loaded) == 0 {
		return fmt.Sprintf("model %q is not loaded (no models loaded)", name)
	}
	return fmt.Sprintf("model %q is not loaded (loaded: %s)", name, strings.Join(loaded, ", "))
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

// writeError renders a JSON error body, echoing the request's ID so a
// client-side error report and the server's access log line correlate
// without header plumbing.
func writeError(w http.ResponseWriter, _ *http.Request, status int, msg string) int {
	body := map[string]string{"error": msg}
	if tr := traceFor(w); tr != nil && tr.ID != "" {
		body["request_id"] = tr.ID
	}
	return writeJSON(w, status, body)
}
