package datalog_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"akb/internal/core"
	"akb/internal/datalog"
	"akb/internal/store"
)

// pipelineFacts runs the real extraction/fusion pipeline once and shares
// the fused facts across every test in the package: the property tests
// run against live-pipeline data, not a hand-picked fixture.
var pipelineFacts = sync.OnceValue(func() []store.Fact {
	res, err := core.New().Run(context.Background())
	if err != nil {
		panic(err)
	}
	return store.FromResult(res).Facts()
})

// layouts returns every store layout the engine must answer identically
// on: the flat store and entity-hash-sharded stores of several widths.
func layouts(facts []store.Fact) map[string]store.Querier {
	return map[string]store.Querier{
		"flat":      store.New(facts),
		"sharded-2": store.NewSharded(facts, 2),
		"sharded-7": store.NewSharded(facts, 7),
	}
}

// refEval is an independent brute-force evaluator: left-to-right
// backtracking over store.Scan (the store's own reference read path),
// with bound variables substituted exactly. It is the ground truth the
// streaming executor is checked against.
func refEval(st *store.Store, q datalog.Query) [][]string {
	sel := q.Select
	if len(sel) == 0 {
		sel = q.Vars()
	}
	env := map[string]string{}
	var rows [][]string
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Clauses) {
			row := make([]string, len(sel))
			for j, v := range sel {
				row[j] = env[v]
			}
			rows = append(rows, row)
			return
		}
		c := q.Clauses[i]
		p := store.Pattern{Class: c.Class}
		if !c.Entity.IsVar() {
			p.Entity = c.Entity.Const
		} else if v, ok := env[c.Entity.Var]; ok {
			p.Entity = v
		}
		if !c.Attr.IsVar() {
			p.Attr = c.Attr.Const
		} else if v, ok := env[c.Attr.Var]; ok {
			p.Attr = v
		}
		if !c.Value.IsVar() {
			p.Value = c.Value.Const
		} else if v, ok := env[c.Value.Var]; ok {
			p.Value, p.Exact = v, true
		}
		for _, f := range st.Scan(p) {
			var added []string
			ok := true
			for _, tf := range []struct {
				t datalog.Term
				v string
			}{{c.Entity, f.Entity}, {c.Attr, f.Attr}, {c.Value, f.Value}} {
				if !tf.t.IsVar() {
					continue
				}
				if cur, bound := env[tf.t.Var]; bound {
					if cur != tf.v {
						ok = false
						break
					}
					continue
				}
				env[tf.t.Var] = tf.v
				added = append(added, tf.t.Var)
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range added {
				delete(env, v)
			}
		}
	}
	rec(0)
	return rows
}

func sortedRows(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// singleClausePatterns derives the pattern matrix from the data itself,
// covering every index the store picks from.
func singleClausePatterns(st *store.Store) []store.Pattern {
	facts := st.Facts()
	f0 := facts[0]
	pats := []store.Pattern{
		{},
		{Entity: f0.Entity},
		{Entity: f0.Entity, Attr: f0.Attr},
		{Entity: f0.Entity, Attr: f0.Attr, Value: f0.Value},
		{Attr: f0.Attr},
		{Class: st.Classes()[0]},
		{Class: st.Classes()[0], Attr: f0.Attr},
		{Value: f0.Value},
		{Entity: "no such entity"},
	}
	for _, f := range facts {
		if len(f.Ancestors) > 0 {
			pats = append(pats, store.Pattern{Value: f.Ancestors[len(f.Ancestors)-1]})
			break
		}
	}
	return pats
}

// clauseFor lifts a pattern into a single-clause query: constant terms
// where the pattern is constrained, fresh variables elsewhere.
func clauseFor(p store.Pattern) datalog.Clause {
	c := datalog.Clause{Class: p.Class}
	if p.Entity != "" {
		c.Entity = datalog.C(p.Entity)
	} else {
		c.Entity = datalog.V("e")
	}
	if p.Attr != "" {
		c.Attr = datalog.C(p.Attr)
	} else {
		c.Attr = datalog.V("a")
	}
	if p.Value != "" {
		c.Value = datalog.C(p.Value)
	} else {
		c.Value = datalog.V("v")
	}
	return c
}

// TestSingleClauseMatchesLookup is the API-equivalence property from the
// issue: a one-clause datalog query is store.Lookup — same facts, same
// order, byte-identical across the flat and sharded layouts.
func TestSingleClauseMatchesLookup(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	for name, src := range layouts(facts) {
		t.Run(name, func(t *testing.T) {
			for _, p := range singleClausePatterns(flat) {
				clause := clauseFor(p)
				q := datalog.Query{Clauses: []datalog.Clause{clause}}
				res, err := datalog.Run(context.Background(), src, q, datalog.Options{})
				if err != nil {
					t.Fatalf("Run(%s): %v", q, err)
				}
				want := flat.Lookup(p)
				if res.Total != len(want) || res.Truncated {
					t.Fatalf("%s: total=%d truncated=%v, want %d facts untruncated", q, res.Total, res.Truncated, len(want))
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), len(want))
				}
				for i, f := range want {
					got := map[string]string{}
					for j, v := range res.Vars {
						got[v] = res.Rows[i][j]
					}
					for v, fv := range bindingsOf(clause, f) {
						if got[v] != fv {
							t.Fatalf("%s row %d: ?%s = %q, want %q (fact %+v)", q, i, v, got[v], fv, f)
						}
					}
				}
			}
		})
	}
}

// bindingsOf maps the clause's variables to the fact's fields.
func bindingsOf(c datalog.Clause, f store.Fact) map[string]string {
	out := map[string]string{}
	if c.Entity.IsVar() {
		out[c.Entity.Var] = f.Entity
	}
	if c.Attr.IsVar() {
		out[c.Attr.Var] = f.Attr
	}
	if c.Value.IsVar() {
		out[c.Value.Var] = f.Value
	}
	return out
}

// multiClauseQueries builds join queries from whatever the pipeline
// produced: entity joins, value joins, a disconnected conjunction, a
// ground filter, and a class-restricted sweep.
func multiClauseQueries(st *store.Store) []datalog.Query {
	facts := st.Facts()
	// An entity with at least two attributes.
	var ent, attr1, attr2 string
	byEnt := map[string][]store.Fact{}
	for _, f := range facts {
		byEnt[f.Entity] = append(byEnt[f.Entity], f)
	}
	for e, fs := range byEnt {
		if len(fs) >= 2 && fs[0].Attr != fs[1].Attr {
			ent, attr1, attr2 = e, fs[0].Attr, fs[1].Attr
			break
		}
	}
	if ent == "" {
		panic("pipeline data has no entity with two attributes")
	}
	class := st.Classes()[0]
	v := datalog.V
	c := datalog.C
	return []datalog.Query{
		// Entity join: two attributes of the same entity.
		{Clauses: []datalog.Clause{
			{Entity: v("x"), Attr: c(attr1), Value: v("v1")},
			{Entity: v("x"), Attr: c(attr2), Value: v("v2")},
		}},
		// Value join: entities sharing a value for one attribute.
		{Clauses: []datalog.Clause{
			{Entity: v("a"), Attr: c(attr1), Value: v("shared")},
			{Entity: v("b"), Attr: c(attr1), Value: v("shared")},
		}, Select: []string{"a", "b"}},
		// Disconnected clauses: a cross product.
		{Clauses: []datalog.Clause{
			{Entity: c(ent), Attr: c(attr1), Value: v("v1")},
			{Entity: v("e"), Attr: c(attr2), Value: v("v2"), Class: class},
		}},
		// Ground first clause as an existence filter.
		{Clauses: []datalog.Clause{
			{Entity: c(ent), Attr: c(attr1), Value: v("w")},
			{Entity: v("e"), Attr: c(attr1), Value: v("w")},
		}},
		// Three-clause chain: value join then an entity probe.
		{Clauses: []datalog.Clause{
			{Entity: v("a"), Attr: c(attr1), Value: v("shared")},
			{Entity: v("b"), Attr: c(attr1), Value: v("shared")},
			{Entity: v("b"), Attr: c(attr2), Value: v("w")},
		}},
		// Class-restricted sweep with a repeated variable inside one
		// clause (entity equals value). Usually empty on pipeline data;
		// TestRepeatedVariableWithinClause pins the non-empty case on a
		// seeded fixture.
		{Clauses: []datalog.Clause{
			{Entity: v("e"), Attr: v("a"), Value: v("e"), Class: class},
		}},
	}
}

// TestMultiClauseMatchesReference checks every join query against the
// brute-force evaluator on every layout, pins the naive plan's row order
// to the reference's left-to-right nested-loop order, and requires
// byte-identical results at parallelism 1, 2 and 4.
func TestMultiClauseMatchesReference(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	ctx := context.Background()
	for qi, q := range multiClauseQueries(flat) {
		want := refEval(flat, q)
		wantSorted := sortedRows(want)
		for name, src := range layouts(facts) {
			t.Run(fmt.Sprintf("q%d/%s", qi, name), func(t *testing.T) {
				// The naive plan IS the reference's clause order, so even
				// its row order must match exactly.
				naive, err := datalog.Run(ctx, src, q, datalog.Options{Naive: true})
				if err != nil {
					t.Fatalf("naive: %v", err)
				}
				if !rowsEqual(naive.Rows, want) {
					t.Fatalf("naive rows diverge from reference:\n got %v\nwant %v", naive.Rows, want)
				}
				// The greedy plan may emit another nested-loop order but
				// must agree as a bag.
				greedy, err := datalog.Run(ctx, src, q, datalog.Options{})
				if err != nil {
					t.Fatalf("greedy: %v", err)
				}
				if greedy.Total != len(want) {
					t.Fatalf("greedy total = %d, want %d", greedy.Total, len(want))
				}
				if !rowsEqual(sortedRows(greedy.Rows), wantSorted) {
					t.Fatalf("greedy rows diverge from reference as a bag:\n got %v\nwant %v", sortedRows(greedy.Rows), wantSorted)
				}
				// Parallel execution is byte-identical to serial at every
				// worker count.
				for _, par := range []int{2, 4} {
					res, err := datalog.Run(ctx, src, q, datalog.Options{Parallelism: par})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if !rowsEqual(res.Rows, greedy.Rows) || res.Total != greedy.Total || res.Truncated != greedy.Truncated {
						t.Fatalf("parallelism %d diverges from serial", par)
					}
				}
			})
		}
	}
}

// TestRepeatedVariableWithinClause pins the bind-before-check order for
// a variable repeated inside one clause. The seeded fixture is
// adversarial on both sides: facts whose entity equals their own value,
// so the correct result is non-empty and an executor comparing against
// a stale slot returns zero rows; and facts whose value equals the
// PREVIOUS canonical-order fact's entity, so a stale-slot comparison
// would also admit false positives, not just miss matches.
func TestRepeatedVariableWithinClause(t *testing.T) {
	facts := []store.Fact{
		{Entity: "a", Class: "person", Attr: "knows", Value: "z"},
		{Entity: "b", Class: "person", Attr: "knows", Value: "b"}, // self-loop
		// Follows (b,knows,b) in canonical order with value equal to that
		// fact's entity — the false-positive trap.
		{Entity: "c", Class: "person", Attr: "knows", Value: "b"},
		{Entity: "d", Class: "person", Attr: "knows", Value: "d"}, // self-loop
		{Entity: "e", Class: "person", Attr: "knows", Value: "d"},
	}
	queries := []datalog.Query{
		{Clauses: []datalog.Clause{
			{Entity: datalog.V("x"), Attr: datalog.C("knows"), Value: datalog.V("x")},
		}},
		// The class-restricted sweep shape from multiClauseQueries, here
		// guaranteed non-empty.
		{Clauses: []datalog.Clause{
			{Entity: datalog.V("e"), Attr: datalog.V("a"), Value: datalog.V("e"), Class: "person"},
		}, Select: []string{"e"}},
	}
	flat := store.New(facts)
	ctx := context.Background()
	for qi, q := range queries {
		want := refEval(flat, q)
		if !rowsEqual(sortedRows(want), [][]string{{"b"}, {"d"}}) {
			t.Fatalf("q%d: reference result %v, want the two self-loops [[b] [d]]", qi, want)
		}
		for name, src := range layouts(facts) {
			for _, opts := range []datalog.Options{{Naive: true}, {}, {Parallelism: 2}, {Parallelism: 4}} {
				res, err := datalog.Run(ctx, src, q, opts)
				if err != nil {
					t.Fatalf("q%d/%s/%+v: %v", qi, name, opts, err)
				}
				if res.Total != len(want) || !rowsEqual(sortedRows(res.Rows), sortedRows(want)) {
					t.Fatalf("q%d/%s/%+v: got total=%d rows=%v, want %v", qi, name, opts, res.Total, res.Rows, want)
				}
			}
		}
	}
}

// TestLimitSemantics pins /v1/query-style truncation: rows are a prefix
// of the unlimited run, the total stays exact, Truncated flips on.
func TestLimitSemantics(t *testing.T) {
	facts := pipelineFacts()
	flat := store.New(facts)
	// Entity self-join: every entity contributes degree² rows, so the
	// result is guaranteed dense on any pipeline output.
	q := datalog.Query{Clauses: []datalog.Clause{
		{Entity: datalog.V("x"), Attr: datalog.V("a"), Value: datalog.V("v")},
		{Entity: datalog.V("x"), Attr: datalog.V("b"), Value: datalog.V("w")},
	}}
	ctx := context.Background()
	full, err := datalog.Run(ctx, flat, q, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < 10 {
		t.Fatalf("fixture too small: total=%d", full.Total)
	}
	for _, par := range []int{1, 4} {
		lim := q
		lim.Limit = 5
		res, err := datalog.Run(ctx, flat, lim, datalog.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 || !res.Truncated || res.Total != full.Total {
			t.Fatalf("par=%d: rows=%d truncated=%v total=%d, want 5/true/%d", par, len(res.Rows), res.Truncated, res.Total, full.Total)
		}
		if !rowsEqual(res.Rows, full.Rows[:5]) {
			t.Fatalf("par=%d: limited rows are not a prefix of the full run", par)
		}
	}
}

// probeFault panics on every index probe (an entity-bound Iterate),
// modelling a store fault that fires on a worker goroutine rather than
// on the first clause's scan.
type probeFault struct{ store.Querier }

func (p probeFault) Iterate(q store.Pattern, yield func(store.Fact) bool) bool {
	if q.Entity != "" {
		panic("probe fault")
	}
	return p.Querier.Iterate(q, yield)
}

// TestStorePanicReachesCaller pins panic propagation: a store fault
// raised on a parallel worker resurfaces on the calling goroutine, where
// the server's recovery middleware can turn it into a 500, instead of
// killing the process.
func TestStorePanicReachesCaller(t *testing.T) {
	src := probeFault{store.New(pipelineFacts())}
	q, err := datalog.Parse("?x ?a ?v . ?x ?b ?w")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			datalog.Run(context.Background(), src, q, datalog.Options{Parallelism: par})
			return nil
		}()
		if rec != "probe fault" {
			t.Errorf("par=%d: recovered %v, want the probe fault", par, rec)
		}
	}
}

// TestGreedyPlanOrdersBySelectivity builds an adversarial store — one
// huge postings list, one tiny one — and checks the greedy plan leads
// with the rare clause while the naive plan pays for the big one, with
// the probe counts to show it.
func TestGreedyPlanOrdersBySelectivity(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 3000; i++ {
		facts = append(facts, store.Fact{Entity: fmt.Sprintf("e%04d", i), Attr: "big", Value: fmt.Sprintf("b%04d", i)})
	}
	for i := 0; i < 3; i++ {
		facts = append(facts, store.Fact{Entity: fmt.Sprintf("e%04d", i), Attr: "rare", Value: "r"})
	}
	st := store.New(facts)
	q, err := datalog.Parse("?x big ?v . ?x rare ?w")
	if err != nil {
		t.Fatal(err)
	}

	plan, err := datalog.PlanQuery(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Steps[0].Clause.Attr.Const; got != "rare" {
		t.Fatalf("greedy plan leads with %q, want the rare clause:\n%s", got, plan)
	}
	if plan.Steps[0].Strategy != datalog.StrategyScan || plan.Steps[1].Strategy != datalog.StrategyProbe {
		t.Fatalf("strategies = %v/%v, want scan/probe", plan.Steps[0].Strategy, plan.Steps[1].Strategy)
	}

	ctx := context.Background()
	greedy, err := datalog.Run(ctx, st, q, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := datalog.Run(ctx, st, q, datalog.Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Total != 3 || naive.Total != 3 {
		t.Fatalf("totals = %d/%d, want 3", greedy.Total, naive.Total)
	}
	if !rowsEqual(sortedRows(greedy.Rows), sortedRows(naive.Rows)) {
		t.Fatal("greedy and naive disagree on the result bag")
	}
	if greedy.Probes*100 > naive.Probes {
		t.Fatalf("greedy probes = %d vs naive %d: want >=100x fewer", greedy.Probes, naive.Probes)
	}
}

// TestPlanStrategies pins the strategy chooser: value-position joins and
// disconnected clauses hash, entity joins probe.
func TestPlanStrategies(t *testing.T) {
	st := store.New([]store.Fact{{Entity: "e", Attr: "a", Value: "v"}})
	cases := []struct {
		query string
		want  []datalog.Strategy
	}{
		{"?x a ?v . ?x b ?w", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyProbe}},
		{"?x a ?v . ?y b ?v", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyHash}},
		{"?x a ?v . ?y b ?w", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyHash}},
		{"e a v . ?x b ?w", []datalog.Strategy{datalog.StrategyScan, datalog.StrategyHash}},
	}
	for _, c := range cases {
		q, err := datalog.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := datalog.NaivePlan(q, st)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range c.want {
			if plan.Steps[i].Strategy != want {
				t.Errorf("%q step %d strategy = %v, want %v", c.query, i, plan.Steps[i].Strategy, want)
			}
		}
	}
}

// TestCancellation proves a cancelled context aborts a long-running join
// instead of finishing it.
func TestCancellation(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 5000; i++ {
		e := fmt.Sprintf("e%05d", i)
		facts = append(facts, store.Fact{Entity: e, Attr: "a", Value: "shared"})
	}
	st := store.New(facts)
	// shared-value self join: 25M bindings, far beyond any deadline.
	q, err := datalog.Parse("?x a ?v . ?y a ?v")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		if _, err := datalog.Run(ctx, st, q, datalog.Options{Parallelism: par}); err == nil {
			t.Fatalf("par=%d: cancelled run returned no error", par)
		}
	}
}

// TestStreamingDoesNotMaterialize is the issue's memory criterion: a
// join with tens of thousands of matches, capped at 10 rows, must not
// allocate anything like an intermediate relation. The threshold is far
// below the >3 MB a materialised result (or intermediate) would cost,
// but leaves room for fixed executor setup.
func TestStreamingDoesNotMaterialize(t *testing.T) {
	const n = 20000
	facts := make([]store.Fact, 0, 2*n)
	for i := 0; i < n; i++ {
		e := fmt.Sprintf("e%05d", i)
		facts = append(facts, store.Fact{Entity: e, Attr: "a", Value: fmt.Sprintf("v%05d", i)})
		facts = append(facts, store.Fact{Entity: e, Attr: "b", Value: "w"})
	}
	st := store.New(facts)
	q, err := datalog.Parse("?x a ?v . ?x b ?w")
	if err != nil {
		t.Fatal(err)
	}
	q.Limit = 10

	ctx := context.Background()
	// Warm once so lazy initialisation is off the books.
	if _, err := datalog.Run(ctx, st, q, datalog.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := datalog.Run(ctx, st, q, datalog.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != n || len(res.Rows) != 10 || !res.Truncated {
		t.Fatalf("total=%d rows=%d truncated=%v, want %d/10/true", res.Total, len(res.Rows), res.Truncated, n)
	}
	delta := after.TotalAlloc - before.TotalAlloc
	const budget = 256 << 10
	if delta > budget {
		t.Fatalf("executor allocated %d bytes across a %d-match join; budget %d — is an intermediate relation being materialised?", delta, n, budget)
	}
}

// TestRunRejectsInvalid covers the executor's validation surface.
func TestRunRejectsInvalid(t *testing.T) {
	st := store.New([]store.Fact{{Entity: "e", Attr: "a", Value: "v"}})
	bad := []datalog.Query{
		{},
		{Clauses: []datalog.Clause{{Entity: datalog.V("x"), Attr: datalog.C("a"), Value: datalog.V("v")}}, Limit: -2},
		{Clauses: []datalog.Clause{{Entity: datalog.V("x"), Attr: datalog.C("a"), Value: datalog.V("v")}}, Select: []string{"nope"}},
	}
	for i, q := range bad {
		if _, err := datalog.Run(context.Background(), st, q, datalog.Options{}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	if !strings.Contains(datalog.StrategyScan.String(), "scan") {
		t.Error("Strategy.String broken")
	}
}
