package bench

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// serveResult is what the serve and learn stages measured.
type serveResult struct {
	phaseA       PhaseStats
	docsPerS     float64 // Phase B documents ÷ wall
	feedDocsPerS float64
	rssMB        float64 // VmRSS of the stage's children at the end of its timed phases
}

// startServer starts one serving child, waits for /readyz and charges its
// exec → ready time to setup_s.
func (r *run) startServer(name, bin, addr string, args ...string) (*Child, error) {
	c, err := r.procs.Start(name, r.bin(bin), append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	ready, err := c.WaitReady(r.ctx, r.http, "http://"+addr+"/readyz")
	if err != nil {
		return nil, err
	}
	r.setupS += ready.Seconds()
	r.logf("%s ready in %.0f ms", name, ready.Seconds()*1000)
	return c, nil
}

func calls(url string, bodies [][]byte) []Call {
	out := make([]Call, len(bodies))
	for i, b := range bodies {
		out[i] = Call{URL: url, Body: b}
	}
	return out
}

func sumRSS(children ...*Child) (float64, error) {
	var total float64
	for _, c := range children {
		mb, err := c.RSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// phaseOps counts a phase's requests as attempted operations.
func (r *run) phaseOps(name string, st PhaseStats) {
	r.ops(st.Sent, st.Failed)
	if st.Failed > 0 {
		r.logf("%s: %d of %d requests failed, first: %v", name, st.Failed, st.Sent, st.FirstErr)
	}
}

// serve runs the read-only serving stage against the published bundle:
// probes (which double as cold-path warm-up), an untimed warm-up, Phase A
// (open loop, single texts) and Phase B (closed loop, 32-document calls).
func (r *run) serve(bundle string) (serveResult, error) {
	var res serveResult
	var children []*Child
	front := "" // where the load goes
	probeTargets := map[string]string{}
	switch r.spec.Topology {
	case TopoDirect:
		addr, err := FreeAddr()
		if err != nil {
			return res, err
		}
		c, err := r.startServer("srcldad", "srcldad", addr, "-bundle", bundle)
		if err != nil {
			return res, err
		}
		children = append(children, c)
		front = "http://" + addr
		probeTargets["direct"] = front
	case TopoGateway:
		backends := ""
		for i := 1; i <= 2; i++ {
			addr, err := FreeAddr()
			if err != nil {
				return res, err
			}
			id := fmt.Sprintf("r%d", i)
			c, err := r.startServer("srcldad-"+id, "srcldad", addr, "-bundle", bundle, "-backend-id", id)
			if err != nil {
				return res, err
			}
			children = append(children, c)
			probeTargets[id] = "http://" + addr
			if i > 1 {
				backends += ","
			}
			backends += id + "=http://" + addr
		}
		addr, err := FreeAddr()
		if err != nil {
			return res, err
		}
		gw, err := r.startServer("srcldagw", "srcldagw", addr, "-backends", backends)
		if err != nil {
			return res, err
		}
		children = append(children, gw)
		front = "http://" + addr
		probeTargets["gateway"] = front
	default:
		return res, fmt.Errorf("serve stage does not run topology %q", r.spec.Topology)
	}
	defer func() {
		for _, c := range children {
			c.Stop()
		}
	}()

	lg := NewLoadgen(MaxClients())
	defer lg.Close()
	if err := r.probe(lg, bundle, probeTargets); err != nil {
		return res, err
	}
	inferURL := front + "/v1/infer"
	warm, _ := lg.Closed(r.ctx, calls(inferURL, r.in.Warmup))
	r.phaseOps("warm-up", Summarize(warm))

	res.phaseA = Summarize(lg.Open(r.ctx, calls(inferURL, r.in.PhaseA), r.spec.InferRate))
	r.phaseOps("phase A", res.phaseA)
	outB, wallB := lg.Closed(r.ctx, calls(inferURL, r.in.PhaseB))
	stB := Summarize(outB)
	r.phaseOps("phase B", stB)
	res.docsPerS = float64(stB.OK*PhaseBDocs) / wallB.Seconds()

	var err error
	if res.rssMB, err = sumRSS(children...); err != nil {
		return res, err
	}
	r.logf("serve: phase A %v %v late p99 %.2f ms; phase B %.0f docs/s; rss %.0f MB",
		res.phaseA.P50, res.phaseA.P95, res.phaseA.LatenessP99MS, res.docsPerS, res.rssMB)
	return res, r.ctx.Err()
}

// probe sends the probe documents to every target, keeping the bodies, and
// runs the identity check.
func (r *run) probe(lg *Loadgen, bundle string, targets map[string]string) error {
	lg.KeepBodies = true
	defer func() { lg.KeepBodies = false }()
	byPath := map[string][]Outcome{}
	for name, base := range targets {
		outs, _ := lg.Closed(r.ctx, calls(base+"/v1/infer", r.in.Probes))
		st := Summarize(outs)
		r.phaseOps("probes via "+name, st)
		byPath[name] = outs
	}
	r.check("probes_identical_and_equal_in_process", r.checkProbes(bundle, byPath))
	return r.ctx.Err()
}

// learn runs the continuous-learning stage on one srcldad -learn-chain
// daemon: the feed documents are offered back to back over one connection
// (a 429'd batch is re-offered after 10 ms) until the daemon reports them all
// applied. With inference true (the learner topology) the daemon is also the
// serving system: Phase A runs beside the feed on the second connection and
// Phase B follows it.
func (r *run) learn(inference bool) (serveResult, error) {
	var res serveResult
	modelsDir := filepath.Join(r.dir, "models")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		return res, err
	}
	addr, err := FreeAddr()
	if err != nil {
		return res, err
	}
	c, err := r.startServer("srcldad-learner", "srcldad", addr, "-learn-chain", r.in.ChainPath, "-models-dir", modelsDir)
	if err != nil {
		return res, err
	}
	defer c.Stop()
	base := "http://" + addr

	lg := NewLoadgen(1) // the inference connection
	defer lg.Close()
	if inference {
		// Before any feed the daemon serves the bundle it published at
		// attach time, which is on disk to compare against.
		if err := r.probe(lg, filepath.Join(modelsDir, "default.bundle"), map[string]string{"learner": base}); err != nil {
			return res, err
		}
		warm, _ := lg.Closed(r.ctx, calls(base+"/v1/infer", r.in.Warmup))
		r.phaseOps("warm-up", Summarize(warm))
	}

	// Phase A lasts as long as the feed does: every timed inference runs
	// beside the learner and every fed document beside inference, however
	// fast either is on the day.
	phaseA := make(chan PhaseStats, 1)
	fedAll := make(chan struct{})
	if inference {
		go func() {
			phaseA <- Summarize(lg.OpenUntil(r.ctx, calls(base+"/v1/infer", r.in.PhaseA), r.spec.InferRate, minPhaseA, fedAll))
		}()
	}
	fed, err := r.feed(base, r.in.Feed)
	close(fedAll)
	if inference {
		res.phaseA = <-phaseA
		r.phaseOps("phase A", res.phaseA)
	}
	if err != nil {
		return res, err
	}
	res.feedDocsPerS = fed

	if inference {
		lgB := NewLoadgen(MaxClients())
		defer lgB.Close()
		outB, wallB := lgB.Closed(r.ctx, calls(base+"/v1/infer", r.in.PhaseB))
		stB := Summarize(outB)
		r.phaseOps("phase B", stB)
		res.docsPerS = float64(stB.OK*PhaseBDocs) / wallB.Seconds()
	}
	if res.rssMB, err = sumRSS(c); err != nil {
		return res, err
	}
	r.check("feed_swapped_at_least_once", r.awaitSwap(base))
	r.logf("learn: %.0f fed docs/s; rss %.0f MB", res.feedDocsPerS, res.rssMB)
	if inference {
		r.logf("learn: phase A beside the feed %v %v late p99 %.2f ms", res.phaseA.P50, res.phaseA.P95, res.phaseA.LatenessP99MS)
	}
	return res, r.ctx.Err()
}

const feedDocsSeries = "srcldad_feed_docs_total"

// feed offers the given feed batches and polls the daemon's own counter every
// 20 ms until all documents are applied; it returns documents per second
// from the first POST to that moment. Each fed document is one attempted
// operation; one never applied is a failed one.
func (r *run) feed(base string, batches [][]byte) (float64, error) {
	ctx, cancel := context.WithTimeout(r.ctx, 120*time.Second)
	defer cancel()
	want := float64(len(batches) * FeedBatchDocs)
	feeder := NewLoadgen(1)
	defer feeder.Close()
	feeder.Accept = func(status int, body []byte) error {
		if status != http.StatusAccepted && status != http.StatusTooManyRequests {
			return fmt.Errorf("feed status %d: %.200s", status, body)
		}
		return nil
	}

	applied := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		defer close(applied)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				// Scraped on the run's own client: the feeder's one
				// connection is busy offering.
				if s, err := r.get(base + "/metrics"); err == nil && s.Sum(feedDocsSeries) >= want {
					applied <- time.Since(start)
					return
				}
			}
		}
	}()

	url := base + "/v1/feed"
	var postErr error
	for _, body := range batches {
		for {
			status, _, err := feeder.post(ctx, Call{URL: url, Body: body}, 0)
			if err != nil {
				postErr = err
				break
			}
			if status == http.StatusAccepted {
				break
			}
			select { // 429: the ingest queue is full
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
		}
		if postErr != nil {
			break
		}
	}
	if postErr != nil {
		cancel()
		<-applied
		r.ops(int(want), int(want))
		return 0, fmt.Errorf("feed: %w", postErr)
	}
	took, ok := <-applied
	if !ok {
		r.ops(int(want), int(want))
		return 0, fmt.Errorf("feed: not all %d documents were applied: %w", int(want), ctx.Err())
	}
	r.ops(int(want), 0)
	return want / took.Seconds(), nil
}

// awaitSwap waits (untimed) for the watcher to have hot-swapped at least one
// republished build; it polls on its default 2 s interval.
func (r *run) awaitSwap(base string) error {
	deadline := time.Now().Add(6 * time.Second)
	for {
		body, err := r.get(base + "/metrics")
		if err == nil {
			if body.Sum("srcldad_model_swaps_total") >= 1 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("no hot swap within 6 s of the feed (%v republishes)", body.Sum("srcldad_feed_republish_total"))
			}
		} else if time.Now().After(deadline) {
			return err
		}
		select {
		case <-r.ctx.Done():
			return r.ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (r *run) get(url string) (PromSeries, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return ParseProm(resp.Body)
}
