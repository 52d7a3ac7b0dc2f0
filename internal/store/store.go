// Package store turns a pipeline result into a servable knowledge base:
// an immutable, indexed snapshot of the fused triples with their
// confidences, support counts and hierarchy context.
//
// The pipeline (internal/core) ends where the paper's Figure 1 ends — an
// augmented KB in process memory — but the ROADMAP's north star is a
// system that answers queries long after the fusion run finished. Store
// is the bridge: it is built once from a *core.Result (or loaded from a
// snapshot written earlier), never mutated afterwards, and therefore safe
// for lock-free concurrent reads from any number of server goroutines.
//
// Four inverted indexes back the query shapes the HTTP API
// (internal/serve) exposes: by entity, by (entity, attribute), by class,
// and by value. The by-value index is hierarchy-aware: a fact is indexed
// under its accepted value and under every generalisation of that value,
// so querying value=Australia also finds entities whose accepted birth
// place is Adelaide — the paper's hierarchical-value-space semantics
// carried through to serving.
package store

import (
	"sort"

	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/kb"
)

// Fact is one accepted (entity, attribute, value) triple of the fused KB,
// annotated with what a consumer needs to act on it: the fused belief,
// the number of supporting sources, the entity's class and the value's
// hierarchy ancestors. Field order is fixed by the snapshot codec.
type Fact struct {
	// Entity is the subject's surface name, e.g. "Film 12".
	Entity string `json:"entity"`
	// Class is the entity's ontology class; empty when the entity is not
	// covered by the ground-truth world (e.g. a discovered entity).
	Class string `json:"class,omitempty"`
	// Attr is the canonical attribute name.
	Attr string `json:"attr"`
	// Value is the accepted value's lexical form.
	Value string `json:"value"`
	// Confidence is the fusion method's belief that the value is true.
	Confidence float64 `json:"confidence"`
	// Sources is the number of sources that asserted the value.
	Sources int `json:"sources,omitempty"`
	// Ancestors are the value's hierarchy generalisations from immediate
	// parent to root, when the value participates in a hierarchy.
	Ancestors []string `json:"ancestors,omitempty"`
}

// Pattern selects facts. Empty fields are wildcards; set fields must all
// match. Value matches hierarchically by default: a fact matches when its
// accepted value equals Value or specialises it (Value is one of the
// fact's ancestors). Exact disables the hierarchy expansion so Value must
// match the accepted value verbatim — the semantics a join needs when a
// variable binding is substituted into the value position.
//
// Pattern is the one query currency of the read path: every Querier
// method that takes a pattern, the /v1/query URL-parameter adapter in
// internal/serve, and every clause of a datalog query (internal/datalog)
// all speak it.
type Pattern struct {
	Entity string
	Attr   string
	Class  string
	Value  string
	// Exact requires Value to equal the fact's accepted value verbatim,
	// with no hierarchical generalisation match.
	Exact bool
}

// Store is the immutable, indexed snapshot. All methods are safe for
// unsynchronised concurrent use: nothing is written after New returns.
type Store struct {
	facts []Fact

	byEntity     map[string][]int32
	byEntityAttr map[string][]int32
	byAttr       map[string][]int32
	byClass      map[string][]int32
	byValue      map[string][]int32

	classes []string
	nEntity int
}

// New builds a store over the facts. The input is copied, sorted into the
// canonical (entity, attr, value, class) order and deduplicated, so every
// lookup — indexed or scanned — returns facts in the same deterministic
// order.
func New(facts []Fact) *Store {
	fs := make([]Fact, len(facts))
	copy(fs, facts)
	sort.Slice(fs, func(i, j int) bool { return factLess(fs[i], fs[j]) })
	// Deduplicate on the identity key; the first (highest-sorted) wins.
	dedup := fs[:0]
	for i, f := range fs {
		if i > 0 && sameFactKey(f, fs[i-1]) {
			continue
		}
		dedup = append(dedup, f)
	}
	fs = dedup

	s := &Store{
		facts:        fs,
		byEntity:     make(map[string][]int32),
		byEntityAttr: make(map[string][]int32),
		byAttr:       make(map[string][]int32),
		byClass:      make(map[string][]int32),
		byValue:      make(map[string][]int32),
	}
	for i, f := range fs {
		idx := int32(i)
		s.byEntity[f.Entity] = append(s.byEntity[f.Entity], idx)
		s.byEntityAttr[entityAttrKey(f.Entity, f.Attr)] = append(s.byEntityAttr[entityAttrKey(f.Entity, f.Attr)], idx)
		s.byAttr[f.Attr] = append(s.byAttr[f.Attr], idx)
		if f.Class != "" {
			s.byClass[f.Class] = append(s.byClass[f.Class], idx)
		}
		s.byValue[f.Value] = append(s.byValue[f.Value], idx)
		for _, anc := range f.Ancestors {
			s.byValue[anc] = append(s.byValue[anc], idx)
		}
	}
	s.nEntity = len(s.byEntity)
	for c := range s.byClass {
		s.classes = append(s.classes, c)
	}
	sort.Strings(s.classes)
	return s
}

// FromResult snapshots a pipeline result: one fact per accepted truth of
// every fusion decision, annotated with the entity's class and the
// value's hierarchy ancestors from the result's world.
func FromResult(res *core.Result) *Store {
	return New(ResultFacts(res))
}

// ResultFacts extracts the fused facts of a pipeline result without
// building indexes — the shared input of FromResult and
// ShardedFromResult.
func ResultFacts(res *core.Result) []Fact {
	fused := res.Fused()
	if fused == nil {
		return nil
	}
	var facts []Fact
	for _, d := range fused.Decisions {
		entity := extract.AttrFromIRI(d.Item.Subject)
		attr := extract.AttrFromIRI(d.Item.Predicate)
		class := ""
		if res.World != nil {
			if e, ok := res.World.Entity(entity); ok {
				class = e.Class
			}
		}
		for _, tr := range d.Truths {
			sources := 0
			if vc := d.Item.Value(tr); vc != nil {
				sources = vc.SupportCount()
			}
			var anc []string
			if res.World != nil && res.World.Hier != nil {
				anc = res.World.Hier.Ancestors(tr.Value)
			}
			facts = append(facts, Fact{
				Entity:     entity,
				Class:      class,
				Attr:       attr,
				Value:      tr.Value,
				Confidence: d.Belief[tr.Key()],
				Sources:    sources,
				Ancestors:  anc,
			})
		}
	}
	return facts
}

// WorldFacts materialises a ground-truth world as store facts: one fact
// per true (entity, attribute, value) with full confidence and the
// value's hierarchy ancestors. It bypasses extraction and fusion, so
// benchmarks and load tests can build KB-scale stores in milliseconds —
// a store of *true* facts, shaped exactly like a fused one.
func WorldFacts(w *kb.World) []Fact {
	var facts []Fact
	for _, class := range w.Ontology.ClassNames() {
		for _, e := range w.EntitiesOf(class) {
			attrs := make([]string, 0, len(e.Values))
			for a := range e.Values {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			for _, a := range attrs {
				for _, v := range e.Values[a] {
					facts = append(facts, Fact{
						Entity:     e.Name,
						Class:      class,
						Attr:       a,
						Value:      v,
						Confidence: 1,
						Sources:    1,
						Ancestors:  w.Hier.Ancestors(v),
					})
				}
			}
		}
	}
	return facts
}

// FromWorld builds a store over a world's ground-truth facts; see
// WorldFacts.
func FromWorld(w *kb.World) *Store { return New(WorldFacts(w)) }

// Len returns the number of facts.
func (s *Store) Len() int { return len(s.facts) }

// EntityCount returns the number of distinct entities.
func (s *Store) EntityCount() int { return s.nEntity }

// Classes returns the distinct entity classes in sorted order. The
// returned slice must not be modified.
func (s *Store) Classes() []string { return s.classes }

// Facts returns every fact in canonical order. The returned slice must
// not be modified.
func (s *Store) Facts() []Fact { return s.facts }

// Entity returns every fact about the entity in canonical order, nil when
// the entity is unknown.
func (s *Store) Entity(id string) []Fact {
	return s.gather(s.byEntity[id], Pattern{})
}

// Triples returns the accepted values for (entity, attr) — all of them,
// with confidences and ancestors, since multi-truth attributes accept
// several values at once.
func (s *Store) Triples(entity, attr string) []Fact {
	return s.gather(s.byEntityAttr[entityAttrKey(entity, attr)], Pattern{})
}

// candidates resolves the most selective postings list for q and strips
// the fields that list already guarantees. all reports the wildcard
// query, whose answer is every fact.
func (s *Store) candidates(q Pattern) (cand []int32, rest Pattern, all bool) {
	rest = q
	switch {
	case q.Entity != "" && q.Attr != "":
		cand = s.byEntityAttr[entityAttrKey(q.Entity, q.Attr)]
		rest.Entity, rest.Attr = "", ""
	case q.Entity != "":
		cand = s.byEntity[q.Entity]
		rest.Entity = ""
	case q.Class != "":
		cand = s.byClass[q.Class]
		rest.Class = ""
	case q.Attr != "":
		cand = s.byAttr[q.Attr]
		rest.Attr = ""
	case q.Value != "":
		// The by-value postings already encode the hierarchy semantics
		// (facts are posted under their value and every ancestor), so no
		// residual value filter is needed — unless the pattern is Exact,
		// where the postings are a superset (they include specialisations)
		// and the verbatim check stays in the residual.
		cand = s.byValue[q.Value]
		if !q.Exact {
			rest.Value = ""
		}
	default:
		return nil, rest, true
	}
	return cand, rest, false
}

// Lookup answers a query through the most selective index available, then
// filters the candidate list on the remaining fields. Its output is
// always identical to Scan's; only the cost differs.
func (s *Store) Lookup(q Pattern) []Fact {
	cand, rest, all := s.candidates(q)
	if all {
		out := make([]Fact, len(s.facts))
		copy(out, s.facts)
		return out
	}
	return s.gather(cand, rest)
}

// LookupN answers a query like Lookup but materialises at most limit
// facts (the first ones in canonical order) while still counting every
// match. limit <= 0 means unlimited. It backs the serving layer's
// result cap: the response needs only the first page plus the true
// total, so the tail is counted, never copied.
func (s *Store) LookupN(q Pattern, limit int) (out []Fact, total int) {
	if limit <= 0 {
		out = s.Lookup(q)
		return out, len(out)
	}
	cand, rest, all := s.candidates(q)
	if all {
		total = len(s.facts)
		n := limit
		if n > total {
			n = total
		}
		out = make([]Fact, n)
		copy(out, s.facts[:n])
		return out, total
	}
	for _, i := range cand {
		f := s.facts[i]
		if !matches(f, rest) {
			continue
		}
		total++
		if len(out) < limit {
			out = append(out, f)
		}
	}
	return out, total
}

// Scan answers a query by brute force over every fact. It is the
// reference semantics for Lookup — tests assert equivalence and the
// BenchmarkStoreLookup baseline measures the index advantage against it.
func (s *Store) Scan(q Pattern) []Fact {
	var out []Fact
	for _, f := range s.facts {
		if matches(f, q) {
			out = append(out, f)
		}
	}
	return out
}

// Iterate streams the facts matching q — the same facts Lookup returns,
// in the same canonical order — into yield without materialising a
// result slice. Iteration stops early when yield returns false; the
// return value reports whether the walk ran to completion. It is the
// allocation-free read the datalog executor's index-nested-loop probes
// are built on: a probe per binding costs postings-walk time and zero
// heap.
func (s *Store) Iterate(q Pattern, yield func(Fact) bool) bool {
	cand, rest, all := s.candidates(q)
	if all {
		for _, f := range s.facts {
			if !yield(f) {
				return false
			}
		}
		return true
	}
	for _, i := range cand {
		if f := s.facts[i]; matches(f, rest) {
			if !yield(f) {
				return false
			}
		}
	}
	return true
}

// CountEstimate returns an upper bound on how many facts match q,
// computed in O(1) from the postings list Lookup would walk — the length
// of the most selective index entry, or the store size for the wildcard
// pattern. No statistics catalog backs it: the indexes that answer the
// query are themselves the statistic, which is exactly what the datalog
// planner's greedy clause ordering needs (estimates that are free,
// deterministic and never stale). For a pattern that sets only Entity
// the estimate is exact: the by-entity postings leave no residual
// filter, so it doubles as an allocation-free existence test.
func (s *Store) CountEstimate(q Pattern) int {
	cand, _, all := s.candidates(q)
	if all {
		return len(s.facts)
	}
	return len(cand)
}

// cursor is a pull stream over the facts matching one pattern in one
// store, in canonical order — the same sequence Iterate pushes. The
// sharded store's k-way merge interleaves one cursor per shard without
// buffering any shard's result set.
type cursor struct {
	facts []Fact
	cand  []int32
	rest  Pattern
	all   bool
	pos   int
}

func (s *Store) cursor(q Pattern) cursor {
	cand, rest, all := s.candidates(q)
	return cursor{facts: s.facts, cand: cand, rest: rest, all: all}
}

// next returns the following match, or false once the stream is done.
func (c *cursor) next() (Fact, bool) {
	if c.all {
		if c.pos >= len(c.facts) {
			return Fact{}, false
		}
		c.pos++
		return c.facts[c.pos-1], true
	}
	for c.pos < len(c.cand) {
		f := c.facts[c.cand[c.pos]]
		c.pos++
		if matches(f, c.rest) {
			return f, true
		}
	}
	return Fact{}, false
}

// gather materialises the facts at the candidate positions that survive
// the residual filter. Postings are ascending, so output stays in
// canonical order.
func (s *Store) gather(cand []int32, rest Pattern) []Fact {
	var out []Fact
	for _, i := range cand {
		if f := s.facts[i]; matches(f, rest) {
			out = append(out, f)
		}
	}
	return out
}

func matches(f Fact, q Pattern) bool {
	if q.Entity != "" && f.Entity != q.Entity {
		return false
	}
	if q.Attr != "" && f.Attr != q.Attr {
		return false
	}
	if q.Class != "" && f.Class != q.Class {
		return false
	}
	if q.Value != "" && f.Value != q.Value {
		if q.Exact {
			return false
		}
		matched := false
		for _, anc := range f.Ancestors {
			if anc == q.Value {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

func entityAttrKey(entity, attr string) string { return entity + "\x00" + attr }

func factLess(a, b Fact) bool {
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Class < b.Class
}

func sameFactKey(a, b Fact) bool {
	return a.Entity == b.Entity && a.Attr == b.Attr && a.Value == b.Value && a.Class == b.Class
}
