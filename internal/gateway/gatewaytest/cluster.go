// Package gatewaytest stands up in-process srcldad replica clusters with
// injectable faults — abrupt kill, hang, 503 storm, delayed readiness — so
// the gateway's failover behavior is tested end to end against the real
// registry stack (real HTTP, real admission, real bundles) instead of
// scripted stubs. Faults are the interesting part of a load balancer; this
// package makes each one a single method call in a test.
package gatewaytest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sourcelda"
	"sourcelda/internal/gateway"
	"sourcelda/internal/obs"
	"sourcelda/internal/registry"
)

var (
	bundleOnce sync.Once
	bundleData []byte
	bundleErr  error
)

// TrainBundle fits the shared two-topic test model (the school/baseball
// corpus used across the repo's serving tests) and returns it serialized as
// a bundle. Training runs once per process; every cluster decodes its own
// copies, so replicas never share model state.
func TrainBundle(tb testing.TB) []byte {
	tb.Helper()
	bundleOnce.Do(func() {
		b := sourcelda.NewCorpusBuilder()
		for i := 0; i < 10; i++ {
			b.AddDocument("school", "pencil ruler eraser pencil notebook paper")
			b.AddDocument("ball", "baseball umpire pitcher baseball inning glove")
		}
		b.AddKnowledgeArticle("School Supplies",
			strings.Repeat("pencil pencil ruler eraser notebook paper paper ", 20))
		b.AddKnowledgeArticle("Baseball",
			strings.Repeat("baseball baseball umpire pitcher inning glove ", 20))
		c, k, err := b.Build()
		if err != nil {
			bundleErr = err
			return
		}
		m, err := sourcelda.Fit(c, k, sourcelda.Options{
			Lambda:     &sourcelda.LambdaPrior{Fixed: true, Lambda: 1},
			Iterations: 60,
			Seed:       7,
		})
		if err != nil {
			bundleErr = err
			return
		}
		var buf bytes.Buffer
		if err := sourcelda.SaveBundle(&buf, m); err != nil {
			bundleErr = err
			return
		}
		bundleData = buf.Bytes()
	})
	if bundleErr != nil {
		tb.Fatal(bundleErr)
	}
	return bundleData
}

// Options configures a cluster.
type Options struct {
	// Replicas is the replica count (default 3).
	Replicas int
	// Registry is the base replica configuration; per-replica identity
	// (BackendID), the default model name and a discard logger are filled
	// in. Shrink QueueSize here to make saturation tests cheap.
	Registry registry.Config
	// ExtraModels are additional model names each replica loads (all decode
	// the same bundle), for tests that need keys spread across the ring.
	ExtraModels []string
}

// Cluster is a set of in-process replicas.
type Cluster struct {
	Replicas []*Replica
}

// New boots the cluster: every replica is a real registry with the test
// bundle loaded, served over a real HTTP listener behind the fault layer.
func New(t testing.TB, opts Options) *Cluster {
	t.Helper()
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	bundle := TrainBundle(t)
	c := &Cluster{}
	for i := 0; i < opts.Replicas; i++ {
		c.Replicas = append(c.Replicas, newReplica(t, i, bundle, opts))
	}
	return c
}

// Specs returns the gateway backend specs for every replica, in order.
func (c *Cluster) Specs() []gateway.BackendSpec {
	specs := make([]gateway.BackendSpec, len(c.Replicas))
	for i, r := range c.Replicas {
		specs[i] = gateway.BackendSpec{ID: r.ID(), URL: r.URL()}
	}
	return specs
}

// ByID returns the replica with the given backend ID, or nil.
func (c *Cluster) ByID(id string) *Replica {
	for _, r := range c.Replicas {
		if r.ID() == id {
			return r
		}
	}
	return nil
}

// Replica is one in-process srcldad replica plus its fault switches.
type Replica struct {
	id  string
	reg *registry.Registry
	srv *httptest.Server

	mu          sync.Mutex
	hang        bool
	hangRelease chan struct{}
	storm       bool
	notReady    bool
	closed      bool
}

func newReplica(t testing.TB, i int, bundle []byte, opts Options) *Replica {
	t.Helper()
	cfg := opts.Registry
	if cfg.DefaultModel == "" {
		cfg.DefaultModel = "default"
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	cfg.BackendID = fmt.Sprintf("replica-%d", i)
	reg := registry.New(cfg)
	load := func(name string) {
		m, err := sourcelda.LoadBundle(bytes.NewReader(bundle))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Load(name, "v1", m); err != nil {
			m.Close()
			t.Fatal(err)
		}
	}
	load(cfg.DefaultModel)
	for _, name := range opts.ExtraModels {
		load(name)
	}
	r := &Replica{id: cfg.BackendID, reg: reg}
	r.srv = httptest.NewServer(r.faults(registry.NewServer(reg)))
	t.Cleanup(r.Close)
	return r
}

// ID is the replica's backend identity (matches its X-Backend header).
func (r *Replica) ID() string { return r.id }

// URL is the replica's base URL.
func (r *Replica) URL() string { return r.srv.URL }

// Registry exposes the underlying registry for direct assertions.
func (r *Replica) Registry() *registry.Registry { return r.reg }

// faults wraps the real replica handler with the injection layer. Each
// fault models a distinct production failure:
//
//   - hang: the replica accepts the connection and never answers — every
//     path including /readyz, so active probes see the silence too.
//   - storm: every API request answers 503, but /readyz and /healthz stay
//     green — the gray failure only passive ejection can catch.
//   - notReady: /readyz answers 503 while the API works — a replica still
//     warming up, which routing must skip without erroring.
func (r *Replica) faults(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		hang, storm, notReady := r.hang, r.storm, r.notReady
		release := r.hangRelease
		r.mu.Unlock()
		switch {
		case hang:
			select {
			case <-release:
				// Released after the fact: answer retryably so a client try
				// that somehow outlived the hang never sees a bogus 200.
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"hang released"}`+"\n")
			case <-req.Context().Done():
			}
			return
		case storm && req.URL.Path != "/readyz" && req.URL.Path != "/healthz":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"injected 503 storm"}`+"\n")
			return
		case notReady && req.URL.Path == "/readyz":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"not ready (injected)"}`+"\n")
			return
		}
		inner.ServeHTTP(w, req)
	})
}

// SetHang toggles the hang fault. Turning it off releases every request
// currently parked in the fault layer.
func (r *Replica) SetHang(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if on && !r.hang {
		r.hang = true
		r.hangRelease = make(chan struct{})
	} else if !on && r.hang {
		r.hang = false
		close(r.hangRelease)
	}
}

// SetStorm toggles the 503-storm fault.
func (r *Replica) SetStorm(on bool) {
	r.mu.Lock()
	r.storm = on
	r.mu.Unlock()
}

// SetReady toggles readiness: SetReady(false) makes /readyz answer 503
// while the API keeps working.
func (r *Replica) SetReady(ready bool) {
	r.mu.Lock()
	r.notReady = !ready
	r.mu.Unlock()
}

// Kill severs every open connection and stops the listener — the abrupt
// process death, not a graceful drain: in-flight requests die mid-response
// and new connections are refused.
func (r *Replica) Kill() {
	r.SetHang(false)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.srv.CloseClientConnections()
	r.srv.Close()
	r.reg.Close()
}

// Close shuts the replica down gracefully; registered as test cleanup and
// safe after Kill.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.srv.Close()
	r.reg.Close()
}
