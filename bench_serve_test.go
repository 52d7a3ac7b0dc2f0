// Serving benchmarks: indexed store lookups vs brute-force scans, and the
// HTTP query API end to end. Both write their measurements into
// BENCH_serve.json (merged, so either benchmark can run alone) which CI
// archives per commit. Run with:
//
//	go test -bench='StoreLookup|ServeQuery' -benchtime=100x
package akb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"akb/internal/core"
	"akb/internal/obs"
	"akb/internal/serve"
	"akb/internal/store"
)

// serveStore builds one pipeline-scale store for all serving benchmarks.
var serveStore = sync.OnceValue(func() *store.Store {
	res, err := core.New().Run(context.Background())
	if err != nil {
		panic(err)
	}
	return store.FromResult(res)
})

// mergeBenchServe read-modify-writes one section of BENCH_serve.json, so
// the two serving benchmarks can run independently without clobbering
// each other's numbers.
func mergeBenchServe(b *testing.B, section string, v any) {
	b.Helper()
	out := map[string]json.RawMessage{}
	if raw, err := os.ReadFile("BENCH_serve.json"); err == nil {
		_ = json.Unmarshal(raw, &out)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	out[section] = raw
	f, err := os.Create("BENCH_serve.json")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSON(f, out); err != nil {
		b.Fatal(err)
	}
}

// benchQueries is a representative query mix over the fused KB: point
// lookups, per-class sweeps and hierarchy-aware value matches.
func benchQueries(st *store.Store) []store.Pattern {
	facts := st.Facts()
	ent, attr := facts[0].Entity, facts[0].Attr
	qs := []store.Pattern{
		{Entity: ent},
		{Entity: ent, Attr: attr},
		{Class: st.Classes()[0], Attr: attr},
		{Attr: attr, Value: facts[0].Value},
	}
	for _, f := range facts {
		if len(f.Ancestors) > 0 {
			qs = append(qs, store.Pattern{Value: f.Ancestors[len(f.Ancestors)-1]})
			break
		}
	}
	return qs
}

// BenchmarkStoreLookup measures the indexed read path against the
// brute-force scan on the same query mix, across serving layouts: the
// flat store and the entity-hash-sharded store. Each layout contributes
// a row (keyed by its shard count) to BENCH_serve.json, pinning both the
// >=10x index-vs-scan criterion (ISSUE 5) and the cost of the sharded
// scatter-gather merge relative to one flat store (ISSUE 9).
func BenchmarkStoreLookup(b *testing.B) {
	flat := serveStore()
	if flat.Len() == 0 {
		b.Fatal("empty store")
	}
	qs := benchQueries(flat)
	type layout struct {
		shards int
		lookup func(q store.Pattern) []store.Fact
		scan   func(q store.Pattern) []store.Fact
	}
	sharded := store.NewSharded(flat.Facts(), store.DefaultShards)
	layouts := []layout{
		{1, flat.Lookup, flat.Scan},
		{sharded.ShardCount(), func(q store.Pattern) []store.Fact {
			fs, _ := sharded.LookupN(q, 0)
			return fs
		}, sharded.Scan},
	}
	rows := make([]map[string]any, 0, len(layouts))
	for _, l := range layouts {
		nsPerOp := map[string]int64{}
		for _, sub := range []struct {
			name string
			run  func(q store.Pattern) []store.Fact
		}{
			{"indexed", l.lookup},
			{"scan", l.scan},
		} {
			sub := sub
			b.Run(fmt.Sprintf("shards=%d/%s", l.shards, sub.name), func(b *testing.B) {
				b.ReportAllocs()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if got := sub.run(qs[i%len(qs)]); len(got) == 0 {
						b.Fatalf("query %+v returned nothing", qs[i%len(qs)])
					}
				}
				nsPerOp[sub.name] = time.Since(start).Nanoseconds() / int64(b.N)
			})
		}
		indexed, scan := nsPerOp["indexed"], nsPerOp["scan"]
		if indexed == 0 || scan == 0 {
			return
		}
		rows = append(rows, map[string]any{
			"shards":            l.shards,
			"indexed_ns_per_op": indexed,
			"scan_ns_per_op":    scan,
			"speedup":           float64(scan) / float64(indexed),
		})
	}
	mergeBenchServe(b, "store_lookup", map[string]any{
		"facts":    flat.Len(),
		"entities": flat.EntityCount(),
		"queries":  len(qs),
		"rows":     rows,
	})
}

// BenchmarkServeQuery measures the HTTP API end to end — routing,
// middleware, store lookup and JSON encoding — against an in-process
// listener.
func BenchmarkServeQuery(b *testing.B) {
	flat := serveStore()
	rows := make([]map[string]any, 0, 2)
	for _, l := range []struct {
		shards int
		st     store.Querier
	}{
		{1, flat},
		{store.DefaultShards, store.NewSharded(flat.Facts(), store.DefaultShards)},
	} {
		srv := serve.New(l.st, obs.NewRegistry(), serve.DefaultConfig())
		ts := httptest.NewServer(srv.Handler())

		facts := flat.Facts()
		urls := []string{
			fmt.Sprintf("%s/v1/entity/%s", ts.URL, strings.ReplaceAll(facts[0].Entity, " ", "_")),
			fmt.Sprintf("%s/v1/query?class=%s&limit=50", ts.URL, url.QueryEscape(flat.Classes()[0])),
			fmt.Sprintf("%s/healthz", ts.URL),
		}
		nsPerOp := map[string]int64{}
		for _, u := range urls {
			u := u
			b.Run(fmt.Sprintf("shards=%d%s", l.shards, u[len(ts.URL):]), func(b *testing.B) {
				start := time.Now()
				for i := 0; i < b.N; i++ {
					resp, err := http.Get(u)
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("%s: status %d", u, resp.StatusCode)
					}
				}
				nsPerOp[u[len(ts.URL):]] = time.Since(start).Nanoseconds() / int64(b.N)
			})
		}
		ts.Close()
		rows = append(rows, map[string]any{
			"shards":           l.shards,
			"routes_ns_per_op": nsPerOp,
		})
	}
	mergeBenchServe(b, "serve_query", map[string]any{"rows": rows})
}
