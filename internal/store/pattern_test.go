package store

import (
	"fmt"
	"reflect"
	"testing"
)

// patternMatrix is shardedQueries plus Exact variants of every pattern
// that names a value: the matrix the streaming-read equivalence tests
// (Iterate, CountEstimate) run against both layouts.
func patternMatrix(s *Store) []Pattern {
	qs := shardedQueries(s)
	for _, q := range qs {
		if q.Value != "" {
			e := q
			e.Exact = true
			qs = append(qs, e)
		}
	}
	return qs
}

// TestExactValueMatching pins the join semantics: Exact patterns match the
// accepted value verbatim, never via hierarchy generalisation, on Lookup,
// Scan, LookupN and Iterate alike.
func TestExactValueMatching(t *testing.T) {
	s := New(testFacts())

	// "Australia" is an ancestor of Adelaide, not an accepted value:
	// hierarchical matching finds the Adelaide fact, exact matching must
	// not.
	if got := s.Lookup(Pattern{Value: "Australia"}); len(got) != 1 {
		t.Fatalf("hierarchical Lookup(Australia) = %d facts, want 1", len(got))
	}
	if got := s.Lookup(Pattern{Value: "Australia", Exact: true}); len(got) != 0 {
		t.Errorf("exact Lookup(Australia) = %+v, want none", got)
	}
	// A leaf value matches both ways.
	for _, exact := range []bool{false, true} {
		got := s.Lookup(Pattern{Value: "Adelaide", Exact: exact})
		if len(got) != 1 || got[0].Entity != "Adelaide Uni" {
			t.Errorf("Lookup(Adelaide, exact=%v) = %+v, want the Adelaide Uni fact", exact, got)
		}
	}
	// Exact composes with other fields, whichever index answers.
	if got := s.Lookup(Pattern{Class: "University", Value: "Australia", Exact: true}); len(got) != 0 {
		t.Errorf("exact class+value lookup = %+v, want none", got)
	}
	if got := s.Lookup(Pattern{Entity: "Susie Fang", Value: "China", Exact: true}); len(got) != 0 {
		t.Errorf("exact entity+value lookup = %+v, want none", got)
	}
	if got := s.Lookup(Pattern{Entity: "Susie Fang", Value: "Wuhan", Exact: true}); len(got) != 1 {
		t.Errorf("exact entity+leaf lookup = %+v, want the Wuhan fact", got)
	}

	// Lookup == Scan must keep holding with Exact set.
	for _, q := range patternMatrix(s) {
		if got, want := s.Lookup(q), s.Scan(q); !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%+v) != Scan:\n got: %+v\nwant: %+v", q, got, want)
		}
	}
}

// TestIterateMatchesLookup proves the streaming read is the same
// relation LookupN materialises — same facts, same canonical order — on
// the flat store and on every sharded layout.
func TestIterateMatchesLookup(t *testing.T) {
	facts := testFacts()
	flat := New(facts)
	queriers := map[string]Querier{
		"flat": flat,
	}
	for _, n := range []int{1, 3, 8} {
		queriers[fmt.Sprintf("sharded-%d", n)] = NewSharded(facts, n)
	}
	for name, q := range queriers {
		t.Run(name, func(t *testing.T) {
			for _, p := range patternMatrix(flat) {
				want, _ := q.LookupN(p, 0)

				var pushed []Fact
				if !q.Iterate(p, func(f Fact) bool {
					pushed = append(pushed, f)
					return true
				}) {
					t.Errorf("Iterate(%+v) reported early stop without one", p)
				}
				if !factsEqual(pushed, want) {
					t.Errorf("Iterate(%+v):\n got: %+v\nwant: %+v", p, pushed, want)
				}

				// The estimate is a free upper bound: never below the true
				// cardinality, never above the store size — and exact for
				// entity-only patterns, which serve's existence test relies on.
				est := q.CountEstimate(p)
				if est < len(want) || est > flat.Len() {
					t.Errorf("CountEstimate(%+v) = %d outside [%d, %d]", p, est, len(want), flat.Len())
				}
				if p == (Pattern{Entity: p.Entity}) && p.Entity != "" && est != len(want) {
					t.Errorf("CountEstimate(%+v) = %d, want exactly %d", p, est, len(want))
				}
			}
		})
	}
}

// TestIterateEarlyStop pins the yield contract: returning false stops the
// walk immediately and Iterate reports the incomplete traversal.
func TestIterateEarlyStop(t *testing.T) {
	s := New(testFacts())
	seen := 0
	completed := s.Iterate(Pattern{}, func(Fact) bool {
		seen++
		return seen < 3
	})
	if completed || seen != 3 {
		t.Fatalf("early stop: completed=%v seen=%d, want false/3", completed, seen)
	}
}

// TestCountEstimateUsesPostings pins the estimator to the index it
// advertises: entity-constrained patterns estimate from the entity
// postings even when a broad residual field is present.
func TestCountEstimateUsesPostings(t *testing.T) {
	s := New(testFacts())
	cases := []struct {
		p    Pattern
		want int
	}{
		{Pattern{}, s.Len()},
		{Pattern{Entity: "Casablanca"}, 3},
		{Pattern{Entity: "Casablanca", Attr: "language"}, 2},
		{Pattern{Entity: "missing"}, 0},
		{Pattern{Class: "Film"}, 3},
		{Pattern{Attr: "language"}, 2},
		// Value postings include hierarchy generalisations, so the exact
		// pattern's estimate stays the superset length — an upper bound.
		{Pattern{Value: "Australia"}, 1},
		{Pattern{Value: "Australia", Exact: true}, 1},
	}
	for _, c := range cases {
		if got := s.CountEstimate(c.p); got != c.want {
			t.Errorf("CountEstimate(%+v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func factsEqual(a, b []Fact) bool {
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
