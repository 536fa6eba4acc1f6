package registry

import (
	"context"
	"time"

	"sourcelda"
	"sourcelda/internal/obs"
)

// Scored is one document's inference result plus the model build that
// produced it.
type Scored struct {
	// Doc is nil when the document had no in-vocabulary tokens.
	Doc *sourcelda.DocumentInference
	// Model and ModelVersion identify the build that scored the document.
	Model        *sourcelda.Model
	ModelVersion string
}

// Infer scores the documents against the named model ("" = default) on the
// calling goroutine. A trace attached to ctx with obs.WithTrace accumulates
// the documents' inference time. Errors: ErrModelNotFound, ErrOverloaded
// (the request would exceed the in-flight bound), ErrUnloaded (model removed
// before the request pinned a session), or the context's error.
func (r *Registry) Infer(ctx context.Context, name string, texts []string) ([]Scored, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	return e.enqueue(ctx, obs.TraceFrom(ctx), texts)
}

// enqueue admits the request's documents whole-or-not against the entry's
// in-flight bound, scores them on the calling goroutine and records the
// inference stage. tr is the submitting request's span (nil when untraced);
// the HTTP path hands it over directly so the hot path never pays a context
// injection. The context is checked once, before scoring: a fold-in run is
// not interruptible, so a caller that is already gone costs nothing and one
// that leaves mid-run costs at most its own documents.
func (e *entry) enqueue(ctx context.Context, tr *obs.Trace, texts []string) ([]Scored, error) {
	n := int64(len(texts))
	if e.inflight.Add(n) > int64(e.cfg.QueueSize) {
		e.inflight.Add(-n)
		return nil, ErrOverloaded
	}
	defer e.inflight.Add(-n)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	results, by := e.score(texts)
	if results == nil {
		return nil, ErrUnloaded
	}
	// Every document of the request waited for the whole scoring call, so
	// each is charged its full duration.
	inferDur := time.Since(start)
	out := make([]Scored, len(texts))
	for i, doc := range results {
		e.metrics.recordStage(obs.StageInfer, inferDur)
		tr.Add(obs.StageInfer, inferDur)
		out[i] = Scored{Doc: doc, Model: by.model, ModelVersion: by.version}
	}
	return out, nil
}

// score runs one request's documents against the entry's active version,
// pinning the session so a concurrent hot swap drains behind it instead of
// tearing it down mid-run. If the version it read was swapped out AND fully
// drained between the load and the pin — possible only when another version
// is already active — it retries against the replacement. Returns nil only
// when no version is active (the entry is being unloaded).
func (e *entry) score(texts []string) ([]*sourcelda.DocumentInference, *version) {
	for {
		v := e.current.Load()
		if v == nil {
			return nil, nil
		}
		if !v.inferrer.Acquire() {
			continue
		}
		results := v.inferrer.InferBatch(texts)
		v.inferrer.Release()
		return results, v
	}
}
