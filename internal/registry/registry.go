package registry

import (
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sourcelda"
	"sourcelda/internal/obs"
)

// Errors the registry reports on the request and admin paths. The HTTP
// layer maps them to status codes (docs/API.md): ErrModelNotFound → 404,
// ErrOverloaded → 503, ErrUnloaded → 503, ErrClosed → 503.
var (
	// ErrModelNotFound means no model is loaded under the requested name.
	ErrModelNotFound = errors.New("registry: model not found")
	// ErrOverloaded means admitting the request would exceed the model's
	// in-flight document bound (or a learner's feed queue), so it was shed.
	ErrOverloaded = errors.New("registry: inference queue is full")
	// ErrUnloaded means the model was unloaded before the request could pin
	// a session to score on.
	ErrUnloaded = errors.New("registry: model unloaded")
	// ErrClosed means the registry has shut down.
	ErrClosed = errors.New("registry: closed")
)

// Config tunes the registry. Zero values take the documented defaults;
// every loaded model shares one configuration (per-model tuning would
// multiply the operational surface for little gain — run two daemons if two
// models truly need different schedules).
type Config struct {
	// Infer is the fold-in sweep schedule, seed and worker count every
	// model's inference session is built with (see sourcelda.InferOptions).
	Infer sourcelda.InferOptions
	// TopN is the number of top topics reported per document (default 5).
	TopN int
	// MaxDocs caps the documents of one inference request (default 64).
	MaxDocs int
	// MaxBody caps an inference request body in bytes (default 1 MiB).
	MaxBody int64
	// AdminMaxBody caps an uploaded bundle (PUT /v1/models/{name}) in bytes
	// (default 256 MiB) — bundles are far larger than inference requests.
	AdminMaxBody int64
	// QueueSize bounds each model's in-flight documents — admitted and not
	// yet answered. A request that would exceed it is shed whole with
	// ErrOverloaded/503 instead of letting latency grow without bound
	// (default 256).
	QueueSize int
	// BatchWindow is read by nothing: requests score on their own goroutine
	// and nothing is coalesced. It stays declared only because
	// internal/bench/trace_serve.go, frozen by the benchmark contract, sets it.
	BatchWindow time.Duration
	// MaxBatch is read by nothing; it stays declared for the same reason as
	// BatchWindow.
	MaxBatch int
	// DefaultModel is the name the unnamed routes (/v1/infer, /v1/topics)
	// alias (default "default").
	DefaultModel string
	// Logger receives the registry's structured events (loads, swaps,
	// unloads, watcher errors, per-request access logs). nil discards
	// everything.
	Logger *slog.Logger
	// SlowRequest is the duration above which a completed request is logged
	// at warning level with its per-stage breakdown (default 1s; negative
	// disables the slow-request log).
	SlowRequest time.Duration
	// BackendID, when non-empty, is echoed as an X-Backend header on every
	// HTTP response, so a gateway's e2e audit (and an operator debugging
	// routing) can tell which replica actually served a request. "" omits
	// the header (single-box deployments have nothing to distinguish).
	BackendID string
}

func (c *Config) applyDefaults() {
	if c.TopN < 1 {
		c.TopN = 5
	}
	if c.MaxDocs < 1 {
		c.MaxDocs = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.AdminMaxBody <= 0 {
		c.AdminMaxBody = 256 << 20
	}
	if c.QueueSize < 1 {
		c.QueueSize = 256
	}
	if c.DefaultModel == "" {
		c.DefaultModel = "default"
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
}

// validName matches acceptable model names: they appear in URL paths,
// metric labels and watched file names, so keep them to a conservative
// token alphabet.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Registry serves many named, versioned models concurrently. Safe for
// concurrent use; see the package documentation for the swap semantics.
type Registry struct {
	cfg   Config
	start time.Time

	mu      sync.RWMutex
	entries map[string]*entry
	closed  bool

	loadSeq atomic.Uint64

	// wmu guards watcherFails, bundle-load failures counted per model name
	// by the directory watcher (rendered as
	// srcldad_watcher_load_failures_total).
	wmu          sync.Mutex
	watcherFails map[string]uint64

	// lmu guards the continuous-learning side: one learner per model name
	// (see learner.go). learnerClosed stops AttachLearner racing Close.
	lmu           sync.Mutex
	learners      map[string]*learner
	learnerClosed bool
}

// New returns an empty registry. Close it to unload every model and release
// their inference sessions.
func New(cfg Config) *Registry {
	cfg.applyDefaults()
	return &Registry{
		cfg:          cfg,
		start:        time.Now(),
		entries:      make(map[string]*entry),
		watcherFails: make(map[string]uint64),
		learners:     make(map[string]*learner),
	}
}

// recordWatcherFailure counts one failed watcher load attempt for a model
// name. The counter outlives the file (a rotted bundle that later
// disappears still shows its failure history).
func (r *Registry) recordWatcherFailure(name string) {
	r.wmu.Lock()
	r.watcherFails[name]++
	r.wmu.Unlock()
}

// watcherFailure is one model's failed-load count, for metrics rendering.
type watcherFailure struct {
	name  string
	count uint64
}

// watcherFailures snapshots the failed-load counters, sorted by model name.
func (r *Registry) watcherFailures() []watcherFailure {
	r.wmu.Lock()
	out := make([]watcherFailure, 0, len(r.watcherFails))
	for name, n := range r.watcherFails {
		out = append(out, watcherFailure{name: name, count: n})
	}
	r.wmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Config returns the registry's effective (defaulted) configuration.
func (r *Registry) Config() Config { return r.cfg }

// DefaultModel returns the name the unnamed routes alias.
func (r *Registry) DefaultModel() string { return r.cfg.DefaultModel }

// version is one immutable loaded build of a model: the fitted model, its
// reference-counted inference session, and identity for listings.
type version struct {
	model    *sourcelda.Model
	inferrer *sourcelda.Inferrer
	version  string
	loadedAt time.Time
	// byIndex holds the model's topics in model-topic order — the order
	// every mixture array is aligned with. It is built lazily on the first
	// topics request (topicsOnce), not at load time: rendering topics for a
	// memory-mapped model materializes every φ row, and paying that O(T·V)
	// at load would forfeit the flat format's O(1) load and near-zero
	// resident cost for the many models that only ever serve inference.
	topicsOnce sync.Once
	byIndex    []sourcelda.Topic
}

// entry is the long-lived per-name serving state: the admission counter and
// metrics survive hot swaps, only the version pointer changes.
type entry struct {
	name    string
	cfg     *Config
	current atomic.Pointer[version]
	metrics *modelMetrics

	// inflight counts documents admitted and not yet answered, bounded by
	// cfg.QueueSize (see enqueue).
	inflight atomic.Int64

	// hmu guards sessions, every inference session this entry has ever
	// activated that has not yet fully drained — the open-sessions gauge,
	// and the hot-swap test's drain oracle.
	hmu      sync.Mutex
	sessions []*sourcelda.Inferrer
}

// LoadResult reports what a Load did.
type LoadResult struct {
	// Name and Version identify the now-active build.
	Name, Version string
	// Swapped is true when the load replaced a live version (a hot swap)
	// rather than introducing a new name.
	Swapped bool
	// PreviousVersion is the replaced build's version string ("" when
	// Swapped is false).
	PreviousVersion string
}

// Load makes m the active version of the named model, hot-swapping any
// previous version behind in-flight requests: requests that have not pinned
// a session yet score against m, while those already scoring finish on the
// old session, which is drained and released via its reference count. The
// request path is never blocked and no request fails because of a swap.
//
// ver names the build; when empty it falls back to the bundle's embedded
// version, then to a process-unique "load-N". The model must be able to
// build its inference session (a degenerate snapshot fails here, leaving
// any previous version serving).
func (r *Registry) Load(name, ver string, m *sourcelda.Model) (LoadResult, error) {
	if !validName.MatchString(name) {
		return LoadResult{}, fmt.Errorf("registry: invalid model name %q (want %s)", name, validName)
	}
	if m == nil {
		return LoadResult{}, errors.New("registry: nil model")
	}
	inferrer, err := m.NewInferrer(r.cfg.Infer)
	if err != nil {
		return LoadResult{}, fmt.Errorf("registry: model %q cannot serve inference: %w", name, err)
	}
	seq := r.loadSeq.Add(1)
	if ver == "" {
		ver = m.BundleInfo().Version
	}
	if ver == "" {
		ver = fmt.Sprintf("load-%d", seq)
	}
	v := &version{
		model:    m,
		inferrer: inferrer,
		version:  ver,
		loadedAt: time.Now(),
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		inferrer.Close()
		return LoadResult{}, ErrClosed
	}
	e := r.entries[name]
	if e == nil {
		e = &entry{name: name, cfg: &r.cfg, metrics: newModelMetrics()}
		r.entries[name] = e
	}
	e.trackSession(inferrer)
	old := e.current.Swap(v)
	r.mu.Unlock()

	res := LoadResult{Name: name, Version: ver}
	if old != nil {
		res.Swapped = true
		res.PreviousVersion = old.version
		e.metrics.recordSwap()
		// Drop the owner reference; the old session drains once the last
		// in-flight request releases its pin. Closing the old model drops its
		// reference to any memory-mapped bundle — the unmap itself still
		// waits for that same session drain, so in-flight requests are safe.
		old.inferrer.Close()
		if old.model != v.model {
			old.model.Close()
		}
		r.cfg.Logger.Info("model hot-swapped",
			"model", name, "old_version", old.version, "new_version", ver)
	} else {
		r.cfg.Logger.Info("model loaded",
			"model", name, "version", ver, "topics", m.NumTopics(), "mapped", m.Mapped())
	}
	return res, nil
}

// Unload removes the named model: new requests get ErrModelNotFound, a
// request that resolved the name but has not pinned a session yet gets
// ErrUnloaded, and the active session drains and releases behind requests
// still scoring on it.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	e := r.entries[name]
	if e == nil {
		r.mu.Unlock()
		return ErrModelNotFound
	}
	delete(r.entries, name)
	r.mu.Unlock()
	e.stop()
	r.cfg.Logger.Info("model unloaded", "model", name)
	return nil
}

// Close unloads every model and marks the registry closed. Requests already
// scoring finish on their pinned session; later ones get ErrClosed.
func (r *Registry) Close() {
	r.closeLearners()
	r.mu.Lock()
	r.closed = true
	es := make([]*entry, 0, len(r.entries))
	for name, e := range r.entries {
		es = append(es, e)
		delete(r.entries, name)
	}
	r.mu.Unlock()
	for _, e := range es {
		e.stop()
	}
}

// stop retires the entry's active version: score finds no version from here
// on, and the session and model are released once the requests pinning them
// finish.
func (e *entry) stop() {
	if v := e.current.Swap(nil); v != nil {
		v.inferrer.Close()
		v.model.Close()
	}
}

// lookup resolves a model name ("" means the default model).
func (r *Registry) lookup(name string) (*entry, error) {
	if name == "" {
		name = r.cfg.DefaultModel
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	e := r.entries[name]
	if e == nil {
		return nil, ErrModelNotFound
	}
	return e, nil
}

// Model returns the named model's currently active build ("" = default) —
// the snapshot request validation and topic rendering read. A concurrent
// swap may activate a newer build before the caller uses it; both are valid
// serving models, so the race is benign.
func (r *Registry) Model(name string) (*sourcelda.Model, error) {
	e, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	v := e.current.Load()
	if v == nil {
		return nil, ErrModelNotFound
	}
	return v.model, nil
}

// Names lists loaded model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ModelInfo is one model's listing entry: identity, provenance, and a
// point-in-time serving snapshot.
type ModelInfo struct {
	Name     string
	Version  string
	LoadedAt time.Time
	Bundle   sourcelda.BundleInfo
	Topics   int
	// Mapped reports whether the build serves from a memory-mapped flat
	// bundle (zero-copy load, page-cache-shared conditionals); MappedBytes
	// is the mapped file size (0 when not mapped).
	Mapped      bool
	MappedBytes int64
	// QueueDepth counts documents admitted and not yet answered;
	// QueueCapacity is the bound (Config.QueueSize) past which requests shed.
	QueueDepth    int
	QueueCapacity int
	// OpenSessions counts inference sessions not yet fully drained: 1 in
	// steady state, 2+ momentarily during a hot swap.
	OpenSessions int
	Stats        MetricsSnapshot
}

// Info reports the named model ("" = default).
func (r *Registry) Info(name string) (ModelInfo, error) {
	e, err := r.lookup(name)
	if err != nil {
		return ModelInfo{}, err
	}
	return e.info(), nil
}

// ListInfo reports every loaded model, sorted by name.
func (r *Registry) ListInfo() []ModelInfo {
	r.mu.RLock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	out := make([]ModelInfo, len(es))
	for i, e := range es {
		out[i] = e.info()
	}
	return out
}

func (e *entry) info() ModelInfo {
	mi := ModelInfo{
		Name:          e.name,
		QueueDepth:    int(e.inflight.Load()),
		QueueCapacity: e.cfg.QueueSize,
		OpenSessions:  e.openSessions(),
		Stats:         e.metrics.snapshot(),
	}
	if v := e.current.Load(); v != nil {
		mi.Version = v.version
		mi.LoadedAt = v.loadedAt
		mi.Bundle = v.model.BundleInfo()
		mi.Topics = v.model.NumTopics()
		mi.Mapped = v.model.Mapped()
		mi.MappedBytes = v.model.MappedBytes()
	}
	return mi
}

// topics returns the active build and its topics in model-topic order,
// rendering them on first use. The build is pinned via its inference session
// while rendering, so a concurrent swap-and-close cannot unmap a mapped
// model's pages mid-materialization; a build that drains before it can be
// pinned is retried against its replacement, mirroring entry.score. ok is
// false when no build is active.
func (e *entry) topics() (v *version, tops []sourcelda.Topic, ok bool) {
	for {
		v := e.current.Load()
		if v == nil {
			return nil, nil, false
		}
		if !v.inferrer.Acquire() {
			continue
		}
		v.topicsOnce.Do(func() {
			rendered := v.model.Topics()
			v.byIndex = make([]sourcelda.Topic, len(rendered))
			for _, tp := range rendered {
				v.byIndex[tp.Index] = tp
			}
		})
		v.inferrer.Release()
		return v, v.byIndex, true
	}
}

// trackSession registers a session for the open-sessions gauge.
func (e *entry) trackSession(inf *sourcelda.Inferrer) {
	e.hmu.Lock()
	e.sessions = append(e.sessions, inf)
	e.hmu.Unlock()
}

// openSessions counts sessions that have not fully drained, pruning the
// drained ones as it goes.
func (e *entry) openSessions() int {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	live := e.sessions[:0]
	for _, s := range e.sessions {
		if !s.Closed() {
			live = append(live, s)
		}
	}
	for i := len(live); i < len(e.sessions); i++ {
		e.sessions[i] = nil
	}
	e.sessions = live
	return len(live)
}
