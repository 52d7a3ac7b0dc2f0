package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"akb/internal/serve"
	"akb/internal/store"
)

// Serving workload timing. The fixed-rate phase takes fixedShare of the
// measured seconds and the closed-loop capacity phase, run in steps of
// capacityStep, the rest. The generator is calibrated at calibrationRate,
// above any capacity this server reaches with nproc connections.
const (
	setupRuns       = 9
	fixedShare      = 1.0 / 3
	calibrationRate = 16000.0
	capacityStep    = time.Second
	calibration     = time.Second
	bodyEvery       = 32 // one GET body in bodyEvery is checked against the store
)

// fixedRate is each serving workload's fixed offered rate in requests/s.
var fixedRate = map[string]float64{"serve-hot": 2000, "serve-cold": 1000}

// servedKB is the scale-8 KB a serving workload serves.
type servedKB struct {
	snapshot string
	bytes    int64
	store    *store.Sharded
	digest   string
}

// prepareKB builds the workload's KB in this process, writes its v3
// snapshot and reopens it, checking that the served snapshot holds the
// same fused facts as the build.
func (b *bench) prepareKB() (*servedKB, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	r, err := timedBuild(pipeline(b.seed, serveScale, b.nproc))
	b.rep.ops(1)
	if err != nil {
		return nil, fmt.Errorf("build scale-%d KB: %w", serveScale, err)
	}
	checkScore(b.rep, pins, b.seed, serveScale, scoreOf(r.res))
	facts := store.ResultFacts(r.res)
	kb := &servedKB{snapshot: filepath.Join(b.dir, "kb.akb"), digest: factsDigest(facts)}
	if err := store.NewSharded(facts, store.DefaultShards).WriteBinarySnapshotFile(kb.snapshot); err != nil {
		return nil, err
	}
	q, _, err := store.OpenSnapshotFile(kb.snapshot, 0)
	if err != nil {
		return nil, err
	}
	sh, ok := q.(*store.Sharded)
	if !ok {
		return nil, fmt.Errorf("snapshot opened as %T, want *store.Sharded", q)
	}
	kb.store = sh
	served := factsDigest(sh.Facts())
	b.rep.check(served == kb.digest, "served snapshot digest %s, built KB %s", served, kb.digest)
	fi, err := os.Stat(kb.snapshot)
	if err != nil {
		return nil, err
	}
	kb.bytes = fi.Size()
	b.rep.note("kb", fmt.Sprintf("scale %d: %d facts, %d entities, %d snapshot bytes, digest %s",
		serveScale, sh.Len(), sh.EntityCount(), kb.bytes, kb.digest))
	b.rep.note("kb_build_s", r.wall.Seconds())
	return kb, nil
}

// server is one `akb serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer spawns akb serve on the snapshot and returns once /readyz
// answers 200, with the time that took.
func (b *bench) startServer(snapshot, addr string, log io.Writer) (*server, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(b.akb, "serve", "-snapshot", snapshot, "-access-log", "off", "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start akb serve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	for time.Since(start) < time.Minute {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("akb serve exited before ready: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	s.stop()
	return nil, 0, errors.New("akb serve not ready after a minute")
}

// stop asks the server to drain and waits for it to exit.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("akb serve did not drain within 20s; killed")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpu returns the server's user plus system CPU time so far.
func (s *server) cpu() time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 1/100 s.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	var ut, st int64
	fmt.Sscan(f[11], &ut)
	fmt.Sscan(f[12], &st)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// cacheCounters reads the server's response-cache hit and miss counters.
func (s *server) cacheCounters() (hits, misses float64, err error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, 0, fmt.Errorf("decode /metrics: %w", err)
	}
	for _, m := range body.Metrics {
		switch m.Name {
		case "akb_serve_cache_hits_total":
			hits = m.Value
		case "akb_serve_cache_misses_total":
			misses = m.Value
		}
	}
	return hits, misses, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// phaseRNG seeds one phase's request draw from the workload seed and the
// phase name, so every run with the same seed sends the same requests.
func (b *bench) phaseRNG(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", b.workload, b.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// reloadIndices places a reload every reloadEvery of schedule time,
// starting half an interval in.
func reloadIndices(rate float64, n int) []int {
	var idx []int
	for at := reloadEvery / 2; ; at += reloadEvery {
		i := int(at.Seconds() * rate)
		if i >= n {
			return idx
		}
		idx = append(idx, i)
	}
}

// phases returns the warm-up and fixed-rate operation sequences. The
// traced run replays exactly these.
func (b *bench) phases(t *traffic) (warm, fixed []op) {
	rate := fixedRate[b.workload]
	if t.cold {
		warm = t.sequence(b.phaseRNG("warm"), int(2*rate), nil)
	} else {
		// Every hot key once, then a second at the fixed rate's mix.
		for _, k := range t.hot {
			warm = append(warm, op{kind: t.reads[k].kind, key: k})
		}
		warm = append(warm, t.sequence(b.phaseRNG("warm"), int(rate), nil)...)
	}
	n := int(fixedShare * b.seconds.Seconds() * rate)
	fixed = t.sequence(b.phaseRNG("fixed"), n, reloadIndices(rate, n))
	return warm, fixed
}

// keepBody selects the responses the run checks: every datalog and
// reload answer, and a seeded one in bodyEvery of the reads.
func keepBody(seed int64, ops []op) func(int) bool {
	off := int(uint64(seed) % bodyEvery)
	return func(i int) bool { return !ops[i].kind.isRead() || i%bodyEvery == off }
}

func (b *bench) runServe() error {
	kb, err := b.prepareKB()
	if err != nil {
		return err
	}
	t, err := newTraffic(b.seed, kb.store, b.workload == "serve-cold")
	if err != nil {
		return err
	}
	rate := fixedRate[b.workload]
	b.rep.note("read_keys", fmt.Sprintf("%d (%d in use)", len(t.reads), b.keysInUse(t)))
	b.rep.note("cache_size", serve.DefaultConfig().CacheSize)
	b.rep.note("connections", b.nproc)
	b.rep.note("fixed_rate_rps", rate)
	b.rep.note("datalog_queries", len(t.dl))
	warm, fixed := b.phases(t)
	b.rep.note("fixed_ops", fmt.Sprintf("%d, sequence %s", len(fixed), seqDigest(fixed)))
	if b.trace {
		return b.traceServe(kb, t, warm, fixed)
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(b.dir, "server.log"))
	if err != nil {
		return err
	}
	defer log.Close()
	var setups []float64
	var srv *server
	defer func() { srv.stop() }()
	for i := 0; i < setupRuns; i++ {
		s, d, err := b.startServer(kb.snapshot, addr, log)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := s.stop(); err != nil {
				return err
			}
		} else {
			srv = s
		}
	}

	calib, err := calibrate(calibrationRate, b.nproc, calibration)
	if err != nil {
		return err
	}
	b.rep.note("calibration", fmt.Sprintf("generator completed %.4f of %.0f rps against a trivial handler", calib, calibrationRate))

	c := newClient(srv.base, b.nproc, t)
	defer c.close()
	b.account(c.run(warm, rate, b.nproc, 0, nil), nil)
	h0, m0, err := srv.cacheCounters()
	if err != nil {
		return err
	}
	rss := sampleRSS(srv.pid())
	defer rss.halt()
	fp := c.run(fixed, rate, b.nproc, 0, keepBody(b.seed, fixed))
	h1, m1, err := srv.cacheCounters()
	if err != nil {
		return err
	}
	b.account(fp, t)

	// The server's CPU time is read around each step of the closed loop.
	capDur := time.Duration((1 - fixedShare) * float64(b.seconds))
	capOps := t.sequence(b.phaseRNG("capacity"), int(2*calibrationRate*capDur.Seconds()), nil)
	var rates, cpuPer []float64
	capReads := 0
	for sent := 0; len(rates) < max(int(capDur/capacityStep), 1); {
		cpu0 := srv.cpu()
		p := c.run(capOps[sent:], 0, b.nproc, capacityStep, nil)
		cpu := srv.cpu() - cpu0
		b.account(p, nil)
		sent += len(p.ops)
		capReads += len(p.reads())
		rates = append(rates, p.throughput())
		cpuPer = append(cpuPer, float64(cpu)/1e6/float64(len(p.ops)))
	}
	rssMedian, rssPeak := rss.median(), procMB(srv.pid(), "VmHWM")
	err = srv.stop()
	srv = nil
	if err != nil {
		return fmt.Errorf("akb serve: %w", err)
	}

	allocKB, failed, err := handlerAllocKB(kb.snapshot, t, warm, fixed)
	if err != nil {
		return err
	}
	b.rep.ops(int64(len(fixed)))
	for i := 0; i < failed; i++ {
		b.rep.fail("in-process replay: non-200 response")
	}

	reads := fp.reads()
	b.rep.set("setup_s", median(setups), "s")
	b.rep.set("op_alloc_kb", allocKB, "KB")
	b.rep.set("rss_mb", rssPeak, "MB")
	b.rep.set("rss_median_mb", rssMedian, "MB")
	b.rep.set("read_p50_ms", fp.readQuantile(0.5), "ms")
	b.rep.set("read_p99_ms", fp.readQuantile(0.99), "ms")
	b.rep.set("read_max_rps", median(rates), "1/s")
	b.rep.set("op_cpu_ms", median(cpuPer), "ms")
	b.rep.set("serve.cache.hit_ratio", (h1-h0)/max(h1-h0+m1-m0, 1), "ratio")
	b.rep.set("loadgen.lateness_ms", fp.lateness(0.99), "ms")
	b.rep.note("reads", fmt.Sprintf("%d at the fixed rate (pooled p50 %.3f ms, p99 %.3f ms); %d in the capacity phase",
		len(reads), quantile(reads, 0.5), quantile(reads, 0.99), capReads))
	if t.cold {
		dl := fp.latencies(opDatalog)
		b.rep.set("datalog_p50_ms", quantile(dl, 0.5), "ms")
		b.rep.set("datalog_p99_ms", quantile(dl, 0.99), "ms")
		b.rep.set("reload_s", median(fp.latencies(opReload))/1000, "s")
		b.rep.note("datalog_requests", len(dl))
		b.rep.note("reloads", len(fp.latencies(opReload)))
	}
	b.rep.set("error_frac", float64(b.rep.failed)/float64(max(b.rep.attempted, 1)), "ratio")
	return nil
}

// keysInUse counts the distinct read keys the workload draws from.
func (b *bench) keysInUse(t *traffic) int {
	if t.cold {
		return len(t.reads)
	}
	return len(t.hot)
}

// account counts a phase's operations and failures, and, given the
// traffic, checks every kept body against the in-process store.
func (b *bench) account(p *phase, t *traffic) {
	b.rep.ops(int64(len(p.ops)))
	for _, e := range p.errs {
		b.rep.fail("%s", e)
	}
	if t == nil {
		return
	}
	checked := 0
	for i, body := range p.bodies {
		if body == nil || !p.samples[i].ok {
			continue
		}
		checked++
		if err := t.verify(p.ops[i], body); err != nil {
			b.rep.fail("body of %s op %d: %v", kindNames[p.ops[i].kind], i, err)
		}
	}
	b.rep.note("bodies_checked", checked)
}

func seqDigest(ops []op) string {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d:%d,", o.kind, o.key)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
