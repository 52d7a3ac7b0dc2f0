package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"akb/internal/datalog"
	"akb/internal/obs"
	"akb/internal/serve"
	"akb/internal/store"
)

// snapshotOpens is how many times the traced run opens the snapshot and
// reloads the in-process server; medians are reported.
const snapshotOpens = 5

// overheadPairs is how many untraced and traced replays the traced run
// pairs to measure the tracing overhead.
const overheadPairs = 3

// buildLayerNames are the per-layer metrics of the pipeline stages.
func buildLayerNames() []string {
	var names []string
	for _, st := range buildStages {
		names = append(names, st+".ms", st+".allocs", st+".mb")
	}
	return append(names,
		"extract.kbx.statements", "extract.domx.statements", "extract.textx.statements",
		"fusion.claims", "augment.facts", "extract.domx.precision", "extract.textx.precision")
}

// serveLayerNames are the per-layer metrics of the serving stack.
func serveLayerNames() []string {
	var names []string
	for _, k := range []opKind{opEntity, opTriples, opQuery, opDatalog} {
		names = append(names, "serve.handler."+kindNames[k]+".us", "serve.handler."+kindNames[k]+".allocs")
	}
	return append(names,
		"serve.cache.hit_ratio",
		"store.entity.us", "store.entity.allocs", "store.triples.us", "store.triples.allocs",
		"store.lookup.us", "store.lookup.allocs", "store.facts_per_call",
		"datalog.parse.us", "datalog.plan.us", "datalog.exec.us", "datalog.probes_per_row",
		"store.snapshot.open_ms", "store.snapshot.bytes_per_fact", "serve.reload.ms",
		"http.transport.us", "loadgen.lateness_ms", "loadgen.calibration_frac")
}

func layerNames() []string {
	names := append(buildLayerNames(), serveLayerNames()...)
	return append(names, "trace.overhead_frac", "trace.unattributed_frac")
}

// unitOf gives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".us"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, ".mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes_per_fact"):
		return "bytes"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, ".precision"):
		return "ratio"
	}
	return "count"
}

// zeroLayers reports layers the workload does not run as 0, so the traced
// table shows that no work happened there.
func zeroLayers(rep *report, names []string) {
	for _, n := range names {
		rep.set(n, 0, unitOf(n))
	}
}

func zeroServeLayers(rep *report) { zeroLayers(rep, serveLayerNames()) }

// inProcessServer builds the server akb serve would run on the snapshot,
// with access logging off and every other setting at its default.
func inProcessServer(snapshot string) (*serve.Server, *obs.Registry, error) {
	q, _, err := store.OpenSnapshotFile(snapshot, 0)
	if err != nil {
		return nil, nil, err
	}
	cfg := serve.DefaultConfig()
	run := obs.NewRun()
	run.Trace().SetLimit(4096)
	cfg.Obs = run
	cfg.Reloader = func() (store.Querier, error) {
		q, _, err := store.OpenSnapshotFile(snapshot, 0)
		return q, err
	}
	return serve.New(q, run.Registry(), cfg), run.Registry(), nil
}

// request builds the in-process HTTP request for an operation.
func (t *traffic) request(o op) *http.Request {
	switch o.kind {
	case opDatalog:
		r := httptest.NewRequest(http.MethodPost, "/v1/datalog", bytes.NewReader(t.dl[o.key].body))
		r.Header.Set("Content-Type", "application/json")
		return r
	case opReload:
		return httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil)
	}
	return httptest.NewRequest(http.MethodGet, t.reads[o.key].path, nil)
}

// discardWriter is the response writer of in-process calls: it keeps the
// status and drops the body, as a connection's writer does once the bytes
// are sent, so a call's allocations are the server's own.
type discardWriter struct {
	header http.Header
	code   int
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: http.Header{}} }

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// prepare builds the requests and writers of in-process calls for ops, so
// that building them is not counted against the server.
func (t *traffic) prepare(ops []op) ([]*http.Request, []*discardWriter) {
	reqs, ws := make([]*http.Request, len(ops)), make([]*discardWriter, len(ops))
	for i, o := range ops {
		reqs[i], ws[i] = t.request(o), newDiscardWriter()
	}
	return reqs, ws
}

// replay sends ops through the server's handler in this goroutine. With a
// tracer it records a request span per op and a handler span inside it.
func replay(h http.Handler, t *traffic, ops []op, tr *tracer) (time.Duration, int) {
	failed := 0
	start := time.Now()
	for i, o := range ops {
		req := t.request(o)
		w := newDiscardWriter()
		if tr == nil {
			h.ServeHTTP(w, req)
		} else {
			root := tr.begin("request", -1, int64(i))
			sp := tr.begin("serve.handler."+kindNames[o.kind], root, int64(i))
			h.ServeHTTP(w, req)
			tr.end(sp)
			tr.end(root)
		}
		if w.code != http.StatusOK {
			failed++
		}
	}
	return time.Since(start), failed
}

// handlerAllocKB replays the warm-up and then the fixed-rate sequence
// through a fresh in-process server and returns the KB the server's
// handler stack allocates per request, with the failed requests.
// Requests and writers are built before the count starts.
func handlerAllocKB(snapshot string, t *traffic, warm, fixed []op) (float64, int, error) {
	s, _, err := inProcessServer(snapshot)
	if err != nil {
		return 0, 0, err
	}
	h := s.Handler()
	replay(h, t, warm, nil)
	reqs, ws := t.prepare(fixed)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i, r := range reqs {
		h.ServeHTTP(ws[i], r)
	}
	runtime.ReadMemStats(&ms)
	failed := 0
	for _, w := range ws {
		if w.code != http.StatusOK {
			failed++
		}
	}
	return float64(ms.TotalAlloc-before) / 1e3 / float64(len(fixed)), failed, nil
}

// mallocsPerCall calls f with the index of every op of the given kind and
// returns the mean heap allocations per call, read with the runtime's
// flushed counters.
func mallocsPerCall(ops []op, kind opKind, f func(int)) float64 {
	var ms runtime.MemStats
	n := 0
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i, o := range ops {
		if o.kind == kind {
			f(i)
			n++
		}
	}
	runtime.ReadMemStats(&ms)
	if n == 0 {
		return 0
	}
	return float64(ms.Mallocs-before) / float64(n)
}

// traceServe is a serving workload's traced run. It measures the same
// fixed-rate sequence over HTTP without tracing, then replays it in
// process through the server's handler, the store and the datalog engine,
// timing each call from here.
func (b *bench) traceServe(kb *servedKB, t *traffic, warm, fixed []op) error {
	rep := b.rep
	zeroLayers(rep, buildLayerNames())
	rate := fixedRate[b.workload]

	calib, err := calibrate(calibrationRate, b.nproc, calibration)
	if err != nil {
		return err
	}
	rep.set("loadgen.calibration_frac", calib, "ratio")

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(b.dir, "server.log"))
	if err != nil {
		return err
	}
	defer log.Close()
	srv, _, err := b.startServer(kb.snapshot, addr, log)
	if err != nil {
		return err
	}
	c := newClient(srv.base, b.nproc, t)
	b.account(c.run(warm, rate, b.nproc, 0, nil), nil)
	fp := c.run(fixed, rate, b.nproc, 0, keepBody(b.seed, fixed))
	c.close()
	if err := srv.stop(); err != nil {
		return fmt.Errorf("akb serve: %w", err)
	}
	b.account(fp, t)
	httpP50 := fp.readQuantile(0.5)
	rep.set("loadgen.lateness_ms", fp.lateness(0.99), "ms")

	var opens, reloads []float64
	for i := 0; i < snapshotOpens; i++ {
		start := time.Now()
		if _, _, err := store.OpenSnapshotFile(kb.snapshot, 0); err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(start))/1e6)
	}
	rep.set("store.snapshot.open_ms", median(opens), "ms")
	rep.set("store.snapshot.bytes_per_fact", float64(kb.bytes)/float64(kb.store.Len()), "bytes")
	s, _, err := inProcessServer(kb.snapshot)
	if err != nil {
		return err
	}
	for i := 0; i < snapshotOpens; i++ {
		start := time.Now()
		if _, err := s.Reload(); err != nil {
			return err
		}
		reloads = append(reloads, float64(time.Since(start))/1e6)
	}
	rep.set("serve.reload.ms", median(reloads), "ms")

	// Fresh servers replay the same sequence untraced and traced, in
	// alternating order; the median ratio of traced to untraced wall time,
	// less one, is the tracing overhead. The last traced replay keeps its
	// spans and gives the cache hit ratio.
	var tr *tracer
	var tracedSrv *serve.Server
	var ratios []float64
	for i := 0; i < overheadPairs; i++ {
		var wall [2]time.Duration // untraced, traced
		for k := 0; k < 2; k++ {
			which := (i + k) % 2
			s, reg, err := inProcessServer(kb.snapshot)
			if err != nil {
				return err
			}
			replay(s.Handler(), t, warm, nil)
			hits, misses := reg.Counter("akb_serve_cache_hits_total"), reg.Counter("akb_serve_cache_misses_total")
			h0, m0 := hits.Value(), misses.Value()
			var pass *tracer
			if which == 1 {
				pass = newTracer()
				tr, tracedSrv = pass, s
			}
			w, failed := replay(s.Handler(), t, fixed, pass)
			wall[which] = w
			rep.ops(int64(len(fixed)))
			for j := 0; j < failed; j++ {
				rep.fail("in-process replay: non-200 response")
			}
			if which == 1 {
				h, m := hits.Value()-h0, misses.Value()-m0
				rep.set("serve.cache.hit_ratio", float64(h)/float64(max(h+m, 1)), "ratio")
			}
		}
		ratios = append(ratios, wall[1].Seconds()/wall[0].Seconds())
	}
	rep.set("trace.overhead_frac", median(ratios)-1, "ratio")

	handler := tracedSrv.Handler()
	reqs, ws := t.prepare(fixed)
	for k := opEntity; k <= opDatalog; k++ {
		rep.set("serve.handler."+kindNames[k]+".allocs", mallocsPerCall(fixed, k, func(i int) {
			handler.ServeHTTP(ws[i], reqs[i])
		}), "count")
	}

	// Direct store and datalog calls on the same keys, each under the
	// request id of the op it mirrors.
	st := kb.store
	facts, calls := 0, 0
	storeCall := func(o op) int {
		k := t.reads[o.key]
		switch o.kind {
		case opEntity:
			return len(st.Entity(k.entity))
		case opTriples:
			return len(st.Triples(k.entity, k.attr))
		}
		fs, _ := st.LookupN(k.pattern, queryLimit)
		return len(fs)
	}
	storeSpan := [...]string{opEntity: "store.entity", opTriples: "store.triples", opQuery: "store.lookup"}
	var probes, rows int64
	ctx := context.Background()
	for i, o := range fixed {
		switch {
		case o.kind.isRead():
			sp := tr.begin(storeSpan[o.kind], -1, int64(i))
			facts += storeCall(o)
			tr.end(sp)
			calls++
		case o.kind == opDatalog:
			q := t.dl[o.key].query
			sp := tr.begin("datalog.parse", -1, int64(i))
			parsed, err := datalog.Parse(q.String())
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("datalog parse %q: %w", q, err)
			}
			parsed.Limit = datalogLimit
			sp = tr.begin("datalog.plan", -1, int64(i))
			plan, err := datalog.PlanQuery(parsed, st)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("datalog plan %q: %w", q, err)
			}
			sp = tr.begin("datalog.exec", -1, int64(i))
			res, err := datalog.RunPlan(ctx, st, parsed, plan, datalog.Options{})
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("datalog exec %q: %w", q, err)
			}
			rep.check(res.Total == t.dl[o.key].total, "datalog %q total %d in process, %d expected", q, res.Total, t.dl[o.key].total)
			probes += res.Probes
			rows += int64(res.Total)
		}
	}
	rep.set("store.facts_per_call", float64(facts)/float64(max(calls, 1)), "count")
	rep.set("datalog.probes_per_row", float64(probes)/float64(max(rows, 1)), "count")
	for k, name := range storeSpan {
		rep.set(name+".allocs", mallocsPerCall(fixed, opKind(k), func(i int) { storeCall(fixed[i]) }), "count")
	}

	self := tr.selfByName()
	us := func(name string) float64 { return median(durationsMS(self[name])) * 1000 }
	var readHandler []time.Duration
	for k := opEntity; k <= opDatalog; k++ {
		name := "serve.handler." + kindNames[k]
		rep.set(name+".us", us(name), "us")
		if k.isRead() {
			readHandler = append(readHandler, self[name]...)
		}
	}
	for _, name := range storeSpan {
		rep.set(name+".us", us(name), "us")
	}
	for _, name := range []string{"datalog.parse", "datalog.plan", "datalog.exec"} {
		rep.set(name+".us", us(name), "us")
	}
	handlerP50 := median(durationsMS(readHandler)) * 1000
	rep.set("http.transport.us", httpP50*1000-handlerP50, "us")

	// A request span's self time is the replay loop's own cost around the
	// handler call: the share of request time no layer accounts for.
	var rootSelf, rootAll time.Duration
	selfs := tr.selfTimes()
	for i, sp := range tr.spans {
		if sp.Name == "request" {
			rootSelf += selfs[i]
			rootAll += time.Duration(sp.End - sp.Start)
		}
	}
	rep.set("trace.unattributed_frac", rootSelf.Seconds()/rootAll.Seconds(), "ratio")
	rep.note("replayed_ops", fmt.Sprintf("%d, sequence %s (the fixed-rate phase's)", len(fixed), seqDigest(fixed)))
	return tr.write(filepath.Join(b.dir, "spans.json"))
}
