package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client sends the workload's requests over at most conns connections.
type client struct {
	hc   *http.Client
	base string
	t    *traffic
}

func newClient(base string, conns int, t *traffic) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, t: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one operation and reads the whole response into buf.
func (c *client) do(o op, buf *bytes.Buffer) (int, error) {
	var req *http.Request
	var err error
	switch o.kind {
	case opDatalog:
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/datalog", bytes.NewReader(c.t.dl[o.key].body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case opReload:
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/admin/reload", nil)
	default:
		req, err = http.NewRequest(http.MethodGet, c.base+c.t.reads[o.key].path, nil)
	}
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// napMax bounds one nap of waitUntil. Go's timers wake sleepers through
// the network poller, whose wait is whole milliseconds, so time.Sleep
// overshoots sub-millisecond waits by about a millisecond; a short
// nanosleep overshoots by the kernel's timer slack (about 50µs) instead.
const napMax = 100 * time.Microsecond

// waitUntil returns at t, or at once if t has passed.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(d, napMax)))
		syscall.Nanosleep(&ts, nil)
	}
}

// sample is one completed operation. Latency runs from when the request
// was due, so a stall also charges the requests queued behind it; late is
// how far behind schedule the generator sent it; at is when it completed,
// from the phase start.
type sample struct {
	lat  time.Duration
	late time.Duration
	at   time.Duration
	ok   bool
}

type phase struct {
	ops     []op
	samples []sample
	bodies  [][]byte // kept for the indices keep selected, nil elsewhere
	elapsed time.Duration
	errs    []string
}

// run sends ops from conns workers. With a rate, op i is due at i/rate
// after the start, and a worker that finds its next op already due sends
// it at once, so a slow server makes the generator late instead of making
// it send less (an open loop). With rate 0 each worker sends its next op
// as soon as its previous one is answered (a closed loop). A positive
// limit stops the phase after that long; the ops sent form a prefix of
// ops.
func (c *client) run(ops []op, rate float64, conns int, limit time.Duration, keep func(int) bool) *phase {
	p := &phase{ops: ops, samples: make([]sample, len(ops)), bodies: make([][]byte, len(ops))}
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				if limit > 0 && time.Since(start) >= limit {
					return
				}
				// Every op claimed is sent, so the ops sent are a prefix.
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
					waitUntil(due)
				}
				now := time.Now()
				if rate <= 0 {
					due = now
				}
				status, err := c.do(ops[i], &buf)
				end := time.Now()
				ok := err == nil && status == http.StatusOK
				p.samples[i] = sample{lat: end.Sub(due), late: now.Sub(due), at: end.Sub(start), ok: ok}
				if !ok {
					mu.Lock()
					p.errs = append(p.errs, fmt.Sprintf("%s op %d: status %d, err %v, body %.200s", kindNames[ops[i].kind], i, status, err, buf.String()))
					mu.Unlock()
				}
				if keep != nil && keep(i) {
					p.bodies[i] = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	n := min(int(next.Load()), len(ops))
	p.ops, p.samples, p.bodies = p.ops[:n], p.samples[:n], p.bodies[:n]
	return p
}

// latencies returns the latencies in ms of the ops of the given kinds.
func (p *phase) latencies(kinds ...opKind) []float64 {
	var out []float64
	for i, s := range p.samples {
		for _, k := range kinds {
			if p.ops[i].kind == k {
				out = append(out, float64(s.lat)/1e6)
				break
			}
		}
	}
	return out
}

func (p *phase) reads() []float64 { return p.latencies(opEntity, opTriples, opQuery) }

// windowReads splits the phase into consecutive windows of length w by
// completion time and returns the latencies in ms of each window's reads.
// The last, partial window is dropped.
func (p *phase) windowReads(w time.Duration) [][]float64 {
	reads := make([][]float64, int(p.elapsed/w))
	for i, s := range p.samples {
		if k := int(s.at / w); k < len(reads) && p.ops[i].kind.isRead() {
			reads[k] = append(reads[k], float64(s.lat)/1e6)
		}
	}
	return reads
}

// readQuantile is the median over one-second windows of each window's
// q-quantile of read latency, in ms. Taking the median of windows keeps a
// rare stall of the host from deciding the figure.
func (p *phase) readQuantile(q float64) float64 {
	var per []float64
	for _, xs := range p.windowReads(time.Second) {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per)
}

// throughput is completed successful operations per second.
func (p *phase) throughput() float64 {
	ok := 0
	for _, s := range p.samples {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / p.elapsed.Seconds()
}

// lateness returns the generator's lateness in ms at quantile q.
func (p *phase) lateness(q float64) float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = float64(s.late) / 1e6
	}
	return quantile(xs, q)
}

// calibrate runs the generator against a trivial in-process handler at
// rate for d and returns the share of the offered rate it sent and
// completed. It shows that read_max_rps measures the server, not the
// client.
func calibrate(rate float64, conns int, d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	}), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t := &traffic{reads: []readKey{{kind: opEntity, path: "/"}}}
	c := newClient("http://"+ln.Addr().String(), conns, t)
	ops := make([]op, int(rate*d.Seconds()))
	c.run(ops[:min(len(ops), 200)], 0, conns, 0, nil)
	p := c.run(ops, rate, conns, 0, nil)
	c.close()
	srv.Close()
	<-done
	return p.throughput() / rate, nil
}
