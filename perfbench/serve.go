package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	hlts "repro"
	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// serve-cluster: the service under open-loop load. A coordinator fronts
// two workers, each with a private store, all on loopback inside this
// process and wired the way hltsd wires them under -store -coordinator
// (anti-entropy replication, read-repair, heartbeats). The request stream
// is loadgen's mixed profile without its batch-deep requests, whose 4 s
// deadlines make ok-versus-partial depend on host speed; what remains is
// interactive-small, repeat-heavy and adversarial-unique at 60/25/5.
const (
	serveRate      = 40.0             // kept requests per second
	serveKeptShare = 18.0 / 20.0      // mixed minus its 10% batch-deep share
	serveSLO       = time.Second      // slo_ok_ratio counts ok answers within this, from the due time
	serveTimeout   = 60 * time.Second // per-request client timeout
	serveSample    = 8                // responses compared with a direct library call
	serveBeat      = 2 * time.Second  // heartbeat and anti-entropy period, as hltsd defaults
	serveWorkers   = 2                // worker nodes behind the coordinator
	serveAliveWait = 10 * time.Second // set-up gives up when workers are not Alive by then
	serveDrain     = 30 * time.Second // shutdown budget per component
	serveQueue     = 64               // worker queue depth (hltsd default), announced in the agent capacity
	serveStreams   = 200              // requests in flight at most (HTTP/2 streams)
	serveWarmup    = `{"bench":"ex","width":4}`
)

// serveSchedule builds the request stream of a seed: loadgen's mixed
// profile at a rate that leaves serveRate requests per second once the
// batch-deep requests are dropped.
func serveSchedule(seed uint64, seconds int) (*loadgen.Schedule, error) {
	s, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{
		Profile:  loadgen.ProfileMixed,
		Seed:     seed,
		Rate:     serveRate / serveKeptShare,
		Duration: time.Duration(seconds) * time.Second,
	})
	if err != nil {
		return nil, err
	}
	kept := s.Requests[:0]
	for _, r := range s.Requests {
		if r.Class != loadgen.ProfileBatch {
			kept = append(kept, r)
		}
	}
	s.Requests = kept
	return s, nil
}

// tap wraps a node's handler: it times every job request and, when
// tracing, records a span keyed by the request's path and body so the
// hops of one request can be linked afterwards (the coordinator does not
// forward a request id).
type tap struct {
	name    string
	next    http.Handler
	tr      *tracer
	answers bool // time 200 answers into hits and misses (worker side)

	mu     sync.Mutex
	hits   []time.Duration // answered from the worker's cache
	misses []time.Duration // answered 200 by a computation
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func requestKey(path string, body []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	return h.Sum64()
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		t.next.ServeHTTP(w, r)
		return
	}
	var key uint64
	if t.tr != nil {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, `{"error":"read body"}`, http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		key = requestKey(r.URL.Path, body)
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t.next.ServeHTTP(sw, r)
	d := time.Since(start)
	if t.answers && sw.status == http.StatusOK {
		t.mu.Lock()
		if w.Header().Get("X-Hlts-Result") == "cached" {
			t.hits = append(t.hits, d)
		} else {
			t.misses = append(t.misses, d)
		}
		t.mu.Unlock()
	}
	if t.tr != nil {
		t.tr.add(span{Name: t.name, Start: t.tr.since(start), End: t.tr.since(start) + d, Parent: -1, Key: key})
	}
}

// node is one worker of the serving cluster.
type node struct {
	url   string
	st    *stats.Stats
	srv   *server.Server
	store *store.Store
	repl  *cluster.Replicator
	agent *cluster.Agent
	http  *http.Server
	tap   *tap
	done  chan struct{}
}

// serving is the booted topology.
type serving struct {
	coord     *cluster.Coordinator
	coordURL  string
	coordHTTP *http.Server
	coordDone chan struct{}
	nodes     []*node
	dir       string
}

// listenCoordinator binds a loopback port and serves the coordinator on
// it, over HTTP/1.1 and unencrypted HTTP/2 (the load generator's protocol).
func listenCoordinator(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	protos := new(http.Protocols)
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: h, Protocols: protos}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// bootServing starts the coordinator and its workers with fresh stores
// and returns once every worker is Alive.
func bootServing(dir string, tr *tracer) (*serving, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &serving{dir: dir}
	s.coord = cluster.New(cluster.Config{HeartbeatInterval: serveBeat})
	var err error
	s.coordHTTP, s.coordURL, s.coordDone, err = listenCoordinator(&tap{name: "cluster", next: s.coord.Handler(), tr: tr})
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < serveWorkers; i++ {
		n, err := bootNode(filepath.Join(dir, fmt.Sprintf("node%d", i)), s.coordURL, tr)
		if n != nil {
			s.nodes = append(s.nodes, n)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	deadline := time.Now().Add(serveAliveWait)
	for {
		alive := 0
		for _, ni := range s.coord.Registry().Nodes() {
			if ni.State == cluster.StateAlive.String() {
				alive++
			}
		}
		if alive == serveWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("only %d of %d workers Alive after %v", alive, serveWorkers, serveAliveWait)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// bootNode starts one worker the way hltsd does with -store and
// -coordinator: private store, replicator offering read-repair, server
// with one job at a time, registration agent.
func bootNode(dir, coordURL string, tr *tracer) (*node, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	n := &node{st: stats.New(), store: st}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.repl = cluster.StartReplicator(cluster.ReplicatorConfig{
		Coordinator: coordURL,
		SelfID:      n.url,
		Store:       st,
		Interval:    serveBeat,
		Stats:       n.st,
	})
	n.srv = server.New(server.Config{
		QueueDepth: serveQueue,
		Jobs:       1,
		Workers:    1,
		Store:      st,
		PeerFetch:  n.repl.Fetch,
		Stats:      n.st,
	})
	n.tap = &tap{name: "worker", next: n.srv.Handler(), tr: tr, answers: true}
	n.http = &http.Server{Handler: n.tap}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	n.agent = cluster.StartAgent(cluster.AgentConfig{
		Coordinator: coordURL,
		ID:          n.url,
		Advertise:   n.url,
		Capacity:    cluster.Capacity{Jobs: 1, Workers: 1, QueueDepth: serveQueue},
		Interval:    serveBeat,
		Stats:       n.srv.Stats(),
		Snapshot: func() cluster.Utilization {
			snap := n.srv.Snapshot()
			return cluster.Utilization{
				Queued: snap.Queued, Inflight: snap.Inflight,
				CacheHitRate: snap.CacheHitRate, JobsRun: snap.JobsRun,
				Store: &cluster.StoreUtil{
					Records: snap.StoreRecords, LiveBytes: snap.StoreLiveBytes,
					Gen: snap.StoreCursor.Gen, Seg: snap.StoreCursor.Seg, Off: snap.StoreCursor.Off,
				},
			}
		},
	})
	return n, nil
}

// close stops everything in hltsd/hltsc shutdown order and waits for it.
func (s *serving) close() {
	ctx, cancel := context.WithTimeout(context.Background(), serveDrain)
	defer cancel()
	for _, n := range s.nodes {
		n.agent.Stop()
		n.repl.Stop()
	}
	if s.coordHTTP != nil {
		_ = s.coordHTTP.Shutdown(ctx) // a forced close is fine at teardown
		<-s.coordDone
		_ = s.coord.Drain(ctx)
	} else if s.coord != nil {
		_ = s.coord.Drain(ctx)
	}
	for _, n := range s.nodes {
		_ = n.http.Shutdown(ctx)
		<-n.done
		_ = n.srv.Drain(ctx)
		_ = n.store.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// exchange is one scheduled request's fate.
type exchange struct {
	Due, Sent, Done time.Duration // since the schedule's origin
	Class           string
	Body            []byte
	Cached          bool
}

// respProbe decodes enough of any answer to classify it.
type respProbe struct {
	Status string  `json:"status"`
	Error  *string `json:"error"`
}

// classify maps an answer onto loadgen's typed outcome classes.
func classify(status int, header http.Header, body []byte) string {
	var p respProbe
	typed := json.Unmarshal(body, &p) == nil
	switch {
	case status == http.StatusOK && typed && p.Status == "partial":
		return loadgen.ClassPartial
	case status == http.StatusOK && typed:
		return loadgen.ClassOK
	case status == http.StatusTooManyRequests && typed && p.Error != nil && header.Get("Retry-After") != "":
		return loadgen.ClassRejected
	case status == http.StatusServiceUnavailable && typed && p.Error != nil:
		return loadgen.ClassDraining
	case status != http.StatusOK && typed && p.Error != nil:
		return loadgen.ClassError
	}
	return loadgen.ClassUntyped
}

// drive sends the schedule open loop and times every request from its
// due time, so a stall is charged to every request that waited behind it.
// Requests travel as HTTP/2 streams multiplexed over at most conns
// connections: with HTTP/1.1, conns connections would cap the requests in
// flight at conns, and one slow synthesis would hold back every request
// queued behind it in the load generator.
func drive(ctx context.Context, base string, reqs []loadgen.Request, conns int, tr *tracer) []exchange {
	protos := new(http.Protocols)
	protos.SetUnencryptedHTTP2(true)
	client := &http.Client{
		Timeout:   serveTimeout,
		Transport: &http.Transport{Protocols: protos, MaxConnsPerHost: conns},
	}
	defer client.CloseIdleConnections()
	ex := make([]exchange, len(reqs))
	// The semaphore stays below the server's default limit of concurrent
	// streams per connection, so no request waits for a stream.
	inflight := make(chan struct{}, serveStreams)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, r := range reqs {
		ex[i].Due = r.At
		if d := time.Until(t0.Add(r.At)); d > 0 {
			time.Sleep(d)
		}
		select {
		case inflight <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			for j := i; j < len(reqs); j++ {
				ex[j].Due, ex[j].Class = reqs[j].At, loadgen.ClassTransport
			}
			break
		}
		ex[i].Sent = time.Since(t0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			send(ctx, client, base, reqs[i], &ex[i])
			ex[i].Done = time.Since(t0)
			if tr != nil {
				tr.add(span{Name: "client", Start: tr.since(t0.Add(ex[i].Sent)), End: tr.since(t0.Add(ex[i].Done)),
					Parent: -1, Req: int64(i), Key: requestKey(reqs[i].Path, reqs[i].Body)})
			}
		}()
	}
	wg.Wait()
	return ex
}

func send(ctx context.Context, client *http.Client, base string, r loadgen.Request, e *exchange) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		e.Class = loadgen.ClassTransport
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		e.Class = loadgen.ClassTransport
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		e.Class = loadgen.ClassTransport
		return
	}
	e.Body = body
	e.Cached = resp.Header.Get("X-Hlts-Result") == "cached"
	e.Class = classify(resp.StatusCode, resp.Header, body)
}

// directBody computes a synthesize answer with a direct library call,
// framed as the service frames it (compact JSON plus a newline).
func directBody(ctx context.Context, reqBody []byte) ([]byte, error) {
	var req server.SynthesizeRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return nil, err
	}
	n, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	res, err := hlts.RunMethodCtx(ctx, n.Method, n.Graph, n.Params)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(server.BuildSynthesizeResponse(n, res))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkServe applies the serve-cluster correctness gates to the answers:
// typed classes, byte-identical repeats, a sample equal to direct library
// calls. It returns one line per failed request (by index) and the number
// of distinct request keys.
func checkServe(ctx context.Context, reqs []loadgen.Request, ex []exchange) (map[int]string, int) {
	bad := map[int]string{}
	first := map[string]int{}
	var order []int // first request of each key, in schedule order
	for i, e := range ex {
		k := reqs[i].Key()
		j, seen := first[k]
		if !seen {
			first[k] = i
			order = append(order, i)
		}
		switch {
		case e.Class == loadgen.ClassUntyped:
			bad[i] = fmt.Sprintf("request %d: untyped answer %q", i, truncate(e.Body))
		case e.Class != loadgen.ClassOK:
			bad[i] = fmt.Sprintf("request %d: answered %s", i, e.Class)
		case seen && ex[j].Class == loadgen.ClassOK && !bytes.Equal(ex[j].Body, e.Body):
			bad[i] = fmt.Sprintf("request %d: repeat of request %d answered different bytes", i, j)
		}
		if seen && ex[j].Class != loadgen.ClassOK && e.Class == loadgen.ClassOK {
			first[k] = i
		}
	}
	step := len(order) / serveSample
	if step < 1 {
		step = 1
	}
	for s := 0; s < len(order); s += step {
		i := first[reqs[order[s]].Key()]
		if ex[i].Class != loadgen.ClassOK {
			continue
		}
		want, err := directBody(ctx, reqs[i].Body)
		switch {
		case err != nil:
			bad[i] = fmt.Sprintf("request %d: direct library call: %v", i, err)
		case !bytes.Equal(want, ex[i].Body):
			bad[i] = fmt.Sprintf("request %d: answer differs from the direct library call", i)
		}
	}
	return bad, len(order)
}

func truncate(b []byte) string {
	if len(b) > 80 {
		return string(b[:80]) + "..."
	}
	return string(b)
}

// runServe is the serve-cluster workload.
func runServe(ctx context.Context, cfg *runConfig) (*outcome, error) {
	tr := cfg.Trace
	dir := filepath.Join(cfg.StateDir, fmt.Sprintf("serve-%d", os.Getpid()))
	var sched *loadgen.Schedule
	// Set-up is ~40 ms, so it is repeated 9 times for a steady median.
	s, setupS, err := measureSetup(9, func() (*serving, error) {
		var err error
		if sched, err = serveSchedule(cfg.Seed, cfg.Seconds); err != nil {
			return nil, err
		}
		s, err := bootServing(dir, tr)
		if err != nil {
			return nil, err
		}
		// Warm-up: one fixed synthesis in this process (not through the
		// cluster, whose counters must see only the schedule), so code
		// pages and the heap are in place before timing.
		if _, err := directBody(ctx, []byte(serveWarmup)); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, func(s *serving) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("serve-cluster set-up: %w", err)
	}
	defer s.close()
	// The tracer's spans from earlier set-ups carry no request spans, so
	// nothing needs discarding here.
	reqs := sched.Requests
	rss := startRSS()
	start := time.Now()
	ex := drive(ctx, s.coordURL, reqs, runtime.NumCPU(), tr)
	elapsed := time.Since(start)
	rssMB := rss.p95()

	out := &outcome{Metrics: map[string]float64{}, ExactScope: fmt.Sprintf("seed%d-s%d", cfg.Seed, cfg.Seconds)}
	bad, unique := checkServe(ctx, reqs, ex)
	var lat, lag []float64
	ok, inSLO := 0, 0
	for i, e := range ex {
		out.Attempted++
		if msg, failed := bad[i]; failed {
			out.Failed++
			if len(out.Problems) < 20 {
				out.Problems = append(out.Problems, msg)
			}
		}
		if e.Class == loadgen.ClassOK {
			ok++
			l := e.Done - e.Due
			if l <= serveSLO {
				inSLO++
			}
			lat = append(lat, float64(l)/float64(time.Millisecond))
		}
		lag = append(lag, float64(e.Sent-e.Due)/float64(time.Millisecond))
	}
	if len(bad) > 20 {
		out.Problems = append(out.Problems, fmt.Sprintf("... %d failed requests in all", len(bad)))
	}

	// Counters the program exposes: worker stats, stores, coordinator.
	layer := newLayerTotals()
	var ctr = map[string]int64{}
	var stRecords, stLive int64
	var hits, misses []time.Duration
	for _, n := range s.nodes {
		layer.merge(n.st)
		for _, c := range []string{"server.cache.hit", "server.cache.miss", "server.coalesce.hit", "server.store.hit",
			"server.jobs.run", "server.queue.rejected", "server.replicate.applied", "server.replicate.readrepair"} {
			ctr[c] += n.st.Value(c)
		}
		sst := n.store.Stats()
		stRecords += int64(sst.Records)
		stLive += sst.LiveBytes
		n.tap.mu.Lock()
		hits = append(hits, n.tap.hits...)
		misses = append(misses, n.tap.misses...)
		n.tap.mu.Unlock()
	}
	cst := s.coord.Stats()
	if jr := ctr["server.jobs.run"]; jr != int64(unique) {
		out.fail("server.jobs_run is %d, the schedule has %d unique keys", jr, unique)
	}
	if rej := ctr["server.queue.rejected"]; rej != 0 {
		out.fail("server.queue.rejected is %d, want 0", rej)
	}
	out.recordExact("server.jobs_run", ctr["server.jobs.run"])
	out.recordExact("core.evaluations", layer.counters["core.evaluations"])
	out.recordExact("core.prunes", layer.counters["core.prunes"])

	m := out.Metrics
	lastDone := time.Duration(0)
	for _, e := range ex {
		if e.Done > lastDone {
			lastDone = e.Done
		}
	}
	opsPerS := ratio(float64(ok), lastDone.Seconds())
	if tr == nil {
		m["setup_s"] = setupS
		m["ops_per_s"] = opsPerS
		m["latency_p50_ms"] = quantile(lat, 0.5)
		m["slo_ok_ratio"] = ratio(float64(inSLO), float64(len(ex)))
		m["rss_p95_mb"] = rssMB
		fmt.Fprintf(os.Stderr, "perfbench: serve-cluster sent %d requests (%d unique) in %.1fs; latency p99 %.1f ms\n",
			len(ex), unique, elapsed.Seconds(), quantile(lat, 0.99))
		return out, nil
	}
	tr.linkHops()
	self := selfTimes(tr.snapshot(), math.MaxInt64)
	addCoreLayers(m, layer, self)
	m["server.hit_ms.p50"] = quantile(durationsMS(hits), 0.5)
	m["server.hits"] = float64(len(hits))
	m["server.miss_ms.p50"] = quantile(durationsMS(misses), 0.5)
	m["server.miss_ms.p99"] = quantile(durationsMS(misses), 0.99)
	m["server.misses"] = float64(len(misses))
	lookups := float64(ctr["server.cache.hit"] + ctr["server.cache.miss"])
	m["server.lru.hit_ratio"] = ratio(float64(ctr["server.cache.hit"]), lookups)
	m["server.lru.lookups"] = lookups
	m["server.coalesce.hits"] = float64(ctr["server.coalesce.hit"])
	m["server.store.hits"] = float64(ctr["server.store.hit"])
	m["server.jobs_run"] = float64(ctr["server.jobs.run"])
	m["server.queue.rejected"] = float64(ctr["server.queue.rejected"])
	m["store.records"] = float64(stRecords)
	m["store.live_bytes"] = float64(stLive)
	m["server.replicate.applied"] = float64(ctr["server.replicate.applied"])
	m["server.replicate.readrepair"] = float64(ctr["server.replicate.readrepair"])
	proxy := tr.proxySelf()
	m["cluster.proxy_ms.p50"] = quantile(proxy, 0.5)
	m["cluster.proxy_ms.p99"] = quantile(proxy, 0.99)
	m["cluster.dispatch.ok"] = float64(cst.Value("cluster.dispatch.ok"))
	m["cluster.dispatch.retries"] = float64(cst.Value("cluster.dispatch.error") + cst.Value("cluster.dispatch.pushback"))
	m["load.sent"] = float64(len(ex))
	m["load.latency_ms.p99"] = quantile(lat, 0.99)
	m["load.lag_ms.p99"] = quantile(lag, 0.99)
	m["load.lag_ms.max"] = quantile(lag, 1)
	m["bench.failed_ratio"] = ratio(float64(out.Failed), float64(out.Attempted))
	m["trace.coverage_min"] = minCoverage(tr.snapshot(), "client")
	m["trace.ops_per_s"] = opsPerS
	m["trace.latency_p50_ms"] = quantile(lat, 0.5)
	return out, nil
}

// linkHops assigns parents across the HTTP hops: each coordinator span
// becomes the child of the client span of the same request key that
// encloses it, and each worker span the child of the enclosing
// coordinator span. Among several candidates the tightest enclosing
// unclaimed span wins.
func (t *tracer) linkHops() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKey := map[uint64][]int{}
	for i, s := range t.spans {
		if s.Key != 0 {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	claimed := map[int]bool{}
	link := func(childName, parentName string) {
		for _, idx := range byKey {
			for _, c := range idx {
				if t.spans[c].Name != childName {
					continue
				}
				best := -1
				for _, p := range idx {
					ps := t.spans[p]
					if ps.Name != parentName || claimed[p] || ps.Start > t.spans[c].Start || ps.End < t.spans[c].End {
						continue
					}
					if best < 0 || ps.End-ps.Start < t.spans[best].End-t.spans[best].Start {
						best = p
					}
				}
				if best >= 0 {
					claimed[best] = true
					t.spans[c].Parent = best
					t.spans[c].Req = t.spans[best].Req
				}
			}
		}
	}
	link("cluster", "client")
	link("worker", "cluster")
}

// proxySelf returns, per linked coordinator span, its self time in ms:
// the hop's own cost with the nested worker span taken out.
func (t *tracer) proxySelf() []float64 {
	spans := t.snapshot()
	kids := children(spans)
	var out []float64
	for i, s := range spans {
		if s.Name != "cluster" || len(kids[i]) == 0 {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(s, kids[i]))/float64(time.Millisecond))
	}
	return out
}
