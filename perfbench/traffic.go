package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"time"

	"akb/internal/datalog"
	"akb/internal/store"
)

// Traffic shape. The response cache holds serve.DefaultConfig().CacheSize
// (4,096) entries per store generation: serve-hot reads hotKeys keys, well
// inside it, and serve-cold reads every key of the KB, several times it.
const (
	hotKeys       = 2000
	hotZipfS      = 1.1
	datalogShare  = 0.05
	datalogLimit  = 50
	datalogPool   = 200
	maxDatalogRow = 500
	queryLimit    = 20
	reloadEvery   = 5 * time.Second
)

type opKind uint8

const (
	opEntity opKind = iota
	opTriples
	opQuery
	opDatalog
	opReload
	nKinds
)

var kindNames = [nKinds]string{"entity", "triples", "query", "datalog", "reload"}

func (k opKind) isRead() bool { return k <= opQuery }

// readKey is one GET the workloads can send, with what the in-process
// store needs to answer it.
type readKey struct {
	kind    opKind
	path    string
	entity  string
	attr    string
	pattern store.Pattern
}

// dlQuery is one POST /v1/datalog with its expected total, computed by
// datalog.Run on the served snapshot.
type dlQuery struct {
	query datalog.Query
	body  []byte
	total int
}

// op is one scheduled request: a read key, a datalog query or a reload.
type op struct {
	kind opKind
	key  int32
}

type traffic struct {
	cold  bool
	st    *store.Sharded
	reads []readKey
	hot   []int32
	dl    []dlQuery
}

// newTraffic derives the workload's keys and datalog queries from the
// served store and the seed.
func newTraffic(seed int64, st *store.Sharded, cold bool) (*traffic, error) {
	t := &traffic{cold: cold, st: st}
	facts := st.Facts()
	seenE, seenEA, seenCA := map[string]bool{}, map[[2]string]bool{}, map[[2]string]bool{}
	for _, f := range facts {
		if !seenE[f.Entity] {
			seenE[f.Entity] = true
			t.reads = append(t.reads, readKey{kind: opEntity, entity: f.Entity,
				path: "/v1/entity/" + url.PathEscape(f.Entity)})
		}
		if ea := [2]string{f.Entity, f.Attr}; !seenEA[ea] {
			seenEA[ea] = true
			t.reads = append(t.reads, readKey{kind: opTriples, entity: f.Entity, attr: f.Attr,
				path: "/v1/triples/" + url.PathEscape(f.Entity) + "/" + url.PathEscape(f.Attr)})
		}
		if ca := [2]string{f.Class, f.Attr}; f.Class != "" && !seenCA[ca] {
			seenCA[ca] = true
			v := url.Values{"class": {f.Class}, "attr": {f.Attr}, "limit": {fmt.Sprint(queryLimit)}}
			t.reads = append(t.reads, readKey{kind: opQuery, pattern: store.Pattern{Class: f.Class, Attr: f.Attr},
				path: "/v1/query?" + v.Encode()})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(t.reads))
	for _, i := range perm[:min(hotKeys, len(perm))] {
		t.hot = append(t.hot, int32(i))
	}
	if cold {
		if err := t.datalogQueries(rng, st, facts); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// datalogQueries draws 1- to 3-clause joins whose constants come from
// sampled facts, and computes each one's expected total. Queries with no
// rows or more than maxDatalogRow rows are redrawn, so every request does
// a bounded, non-trivial join.
func (t *traffic) datalogQueries(rng *rand.Rand, st *store.Sharded, facts []store.Fact) error {
	ctx := context.Background()
	for tries := 0; len(t.dl) < datalogPool; tries++ {
		if tries > 100*datalogPool {
			return fmt.Errorf("drew only %d usable datalog queries", len(t.dl))
		}
		f := facts[rng.Intn(len(facts))]
		first := datalog.Clause{Entity: datalog.V("e"), Attr: datalog.C(f.Attr), Value: datalog.C(f.Value)}
		q := datalog.Query{Clauses: []datalog.Clause{first}, Limit: datalogLimit}
		switch rng.Intn(3) {
		case 1:
			q.Clauses = append(q.Clauses, datalog.Clause{Entity: datalog.V("e"), Attr: datalog.V("a"), Value: datalog.V("v")})
		case 2:
			same := st.Entity(f.Entity)
			other := same[rng.Intn(len(same))].Attr
			q.Clauses[0].Class = f.Class
			q.Clauses = append(q.Clauses,
				datalog.Clause{Entity: datalog.V("e"), Attr: datalog.C(other), Value: datalog.V("y")},
				datalog.Clause{Entity: datalog.V("x"), Attr: datalog.C(other), Value: datalog.V("y")})
		}
		res, err := datalog.Run(ctx, st, q, datalog.Options{})
		if err != nil {
			return fmt.Errorf("datalog %s: %w", q, err)
		}
		if res.Total == 0 || res.Total > maxDatalogRow {
			continue
		}
		body, err := json.Marshal(map[string]any{"query": q.String(), "limit": datalogLimit})
		if err != nil {
			return err
		}
		t.dl = append(t.dl, dlQuery{query: q, body: body, total: res.Total})
	}
	return nil
}

// sequence draws n operations for one phase. serve-hot reads its hot keys
// Zipf-skewed; serve-cold reads every key uniformly, mixes in datalog
// queries, and puts a reload at each of the given indices.
func (t *traffic) sequence(rng *rand.Rand, n int, reloadAt []int) []op {
	ops := make([]op, n)
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(t.hot)-1))
	for i := range ops {
		switch {
		case !t.cold:
			k := t.hot[zipf.Uint64()]
			ops[i] = op{kind: t.reads[k].kind, key: k}
		case rng.Float64() < datalogShare:
			ops[i] = op{kind: opDatalog, key: int32(rng.Intn(len(t.dl)))}
		default:
			k := int32(rng.Intn(len(t.reads)))
			ops[i] = op{kind: t.reads[k].kind, key: k}
		}
	}
	if t.cold {
		for _, i := range reloadAt {
			if i < n {
				ops[i] = op{kind: opReload}
			}
		}
	}
	return ops
}

// verify checks a response body against the in-process store's answer
// for the same operation, field by field as API.md documents them.
func (t *traffic) verify(o op, body []byte) error {
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var want map[string]any
	switch o.kind {
	case opReload:
		if got["status"] != "reloaded" {
			return fmt.Errorf("reload answered %v", got)
		}
		return nil
	case opDatalog:
		q := t.dl[o.key]
		want = map[string]any{"total": q.total, "count": min(q.total, datalogLimit)}
		got = map[string]any{"total": got["total"], "count": got["count"]}
	case opEntity:
		k := t.reads[o.key]
		facts := t.st.Entity(k.entity)
		attrs := map[string][]map[string]any{}
		for _, f := range facts {
			attrs[f.Attr] = append(attrs[f.Attr], valueOut(f))
		}
		want = map[string]any{"entity": k.entity, "facts": len(facts), "attributes": attrs}
		if len(facts) > 0 && facts[0].Class != "" {
			want["class"] = facts[0].Class
		}
	case opTriples:
		k := t.reads[o.key]
		var values []map[string]any
		for _, f := range t.st.Triples(k.entity, k.attr) {
			values = append(values, valueOut(f))
		}
		want = map[string]any{"entity": k.entity, "attr": k.attr, "values": values}
	case opQuery:
		facts, total := t.st.LookupN(t.reads[o.key].pattern, queryLimit)
		want = map[string]any{"count": len(facts), "total": total, "facts": facts}
		if total > len(facts) {
			want["truncated"] = true
		}
		delete(got, "generation")
	}
	raw, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var norm map[string]any
	if err := json.Unmarshal(raw, &norm); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, norm) {
		return fmt.Errorf("got %.300s, store says %.300s", body, raw)
	}
	return nil
}

// valueOut is one accepted value as the entity and triples routes render
// it.
func valueOut(f store.Fact) map[string]any {
	v := map[string]any{"value": f.Value, "confidence": f.Confidence}
	if f.Sources != 0 {
		v["sources"] = f.Sources
	}
	if len(f.Ancestors) > 0 {
		v["ancestors"] = f.Ancestors
	}
	return v
}
