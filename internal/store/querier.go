package store

// Querier is the one read surface of a store. The HTTP layer
// (internal/serve) and the datalog executor (internal/datalog) depend on
// it alone. *Store and *Sharded implement it natively; the chaos wrapper
// in chaos.go implements every method by delegation, so fault injection
// runs the same read path production serves from.
//
// Every method must be safe for unsynchronised concurrent use, like the
// immutable *Store it usually wraps.
type Querier interface {
	// Len returns the number of facts.
	Len() int
	// EntityCount returns the number of distinct entities.
	EntityCount() int
	// Classes returns the distinct entity classes in sorted order.
	Classes() []string
	// Entity returns every fact about the entity in canonical order.
	Entity(id string) []Fact
	// Triples returns the accepted values for (entity, attr).
	Triples(entity, attr string) []Fact
	// LookupN answers a pattern (empty fields are wildcards) with at
	// most limit facts, the first in canonical order, plus the true
	// total match count; limit <= 0 means unlimited.
	LookupN(q Pattern, limit int) (facts []Fact, total int)
	// Iterate calls yield for each fact matching q, in the order LookupN
	// returns them, until yield returns false; it reports whether the
	// walk completed. No result slice is allocated.
	Iterate(q Pattern, yield func(Fact) bool) bool
	// CountEstimate returns an upper bound on the matches for q in O(1),
	// straight from postings-list lengths. It is exact for patterns that
	// set only Entity.
	CountEstimate(q Pattern) int
}

var (
	_ Querier = (*Store)(nil)
	_ Querier = (*Sharded)(nil)
	_ Querier = (*chaosQuerier)(nil)
)
