package store

import (
	"hash/fnv"
	"sort"

	"akb/internal/core"
)

// DefaultShards is the shard count NewSharded uses when the caller does
// not pick one. Eight shards keep per-shard index maps small enough to
// stay cache-friendly while giving the scatter-gather path real
// parallelism headroom on typical server core counts.
const DefaultShards = 8

// ShardOf returns the shard an entity's facts live in: FNV-1a over the
// entity name modulo n. Every route that names an entity — /v1/entity,
// /v1/triples, entity-constrained /v1/query — therefore touches exactly
// one shard, and the assignment is stable across processes and runs, so
// the same snapshot always shards the same way.
func ShardOf(entity string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(entity))
	return int(h.Sum64() % uint64(n))
}

// Sharded partitions the fused KB by entity hash into independent
// Stores, each with its own postings-list indexes. It implements Querier
// with the exact semantics of one big Store — LookupN and Iterate results
// are byte-identical, ordering included — while bounding per-shard index
// size and creating the seam for multi-process deployment: a shard is
// self-contained, so peeling one onto another machine changes routing,
// not semantics.
//
// Entity-keyed reads route to exactly one shard. Wildcard reads
// scatter to every shard and merge the per-shard results — each already
// in canonical order — with a k-way merge, so the global order equals
// the single-store order without a post-merge sort. Like Store, a
// Sharded is immutable after construction and safe for unsynchronised
// concurrent use.
type Sharded struct {
	shards  []*Store
	classes []string
	nFacts  int
	nEntity int
}

// NewSharded partitions facts by entity hash into n shards (DefaultShards
// when n <= 0) and indexes each independently. Deduplication is global
// even though each shard dedups locally: facts with the same identity key
// share an entity and therefore a shard.
func NewSharded(facts []Fact, n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	parts := make([][]Fact, n)
	for _, f := range facts {
		i := ShardOf(f.Entity, n)
		parts[i] = append(parts[i], f)
	}
	s := &Sharded{shards: make([]*Store, n)}
	classSet := make(map[string]bool)
	for i, part := range parts {
		sh := New(part)
		s.shards[i] = sh
		s.nFacts += sh.Len()
		s.nEntity += sh.EntityCount()
		for _, c := range sh.Classes() {
			classSet[c] = true
		}
	}
	s.classes = make([]string, 0, len(classSet))
	for c := range classSet {
		s.classes = append(s.classes, c)
	}
	sort.Strings(s.classes)
	return s
}

// ShardedFromResult snapshots a pipeline result into n shards; the
// sharded counterpart of FromResult.
func ShardedFromResult(res *core.Result, n int) *Sharded {
	return NewSharded(ResultFacts(res), n)
}

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Shard returns one shard's store (for the snapshot codec and tests).
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// Len returns the total fact count across shards.
func (s *Sharded) Len() int { return s.nFacts }

// EntityCount returns the total distinct-entity count. Shards partition
// entities, so the per-shard counts sum without overlap.
func (s *Sharded) EntityCount() int { return s.nEntity }

// Classes returns the distinct entity classes across all shards in
// sorted order. The returned slice must not be modified.
func (s *Sharded) Classes() []string { return s.classes }

// Facts returns every fact in global canonical order (merged across
// shards). Unlike Store.Facts this allocates; it exists for the codec
// and for equivalence tests, not the serving hot path.
func (s *Sharded) Facts() []Fact {
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		lists[i] = sh.Facts()
	}
	return mergeFacts(lists, -1)
}

// Flatten rebuilds the equivalent single Store.
func (s *Sharded) Flatten() *Store { return New(s.Facts()) }

// Entity returns every fact about the entity; exactly one shard is
// consulted.
func (s *Sharded) Entity(id string) []Fact {
	return s.shards[ShardOf(id, len(s.shards))].Entity(id)
}

// Triples returns the accepted values for (entity, attr); exactly one
// shard is consulted.
func (s *Sharded) Triples(entity, attr string) []Fact {
	return s.shards[ShardOf(entity, len(s.shards))].Triples(entity, attr)
}

// LookupN answers a query with at most limit facts plus the true total,
// identical to what the equivalent single Store's LookupN returns. The
// scatter passes the limit down to every shard: the global first-limit
// facts in canonical order draw at most limit from any one shard, so
// each shard materialises a bounded prefix while still counting its full
// total — the per-shard-limit property that keeps wildcard queries cheap
// as shards multiply.
func (s *Sharded) LookupN(q Pattern, limit int) (out []Fact, total int) {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].LookupN(q, limit)
	}
	if limit <= 0 {
		// Store.LookupN treats non-positive limits as unlimited; mergeFacts
		// spells unlimited as a negative limit.
		limit = -1
	}
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		part, n := sh.LookupN(q, limit)
		lists[i] = part
		total += n
	}
	return mergeFacts(lists, limit), total
}

// Iterate streams the facts matching q in global canonical order, like
// Store.Iterate. Entity-constrained patterns stream straight off one
// shard; everything else k-way merges one cursor per shard lazily, so no
// shard's result set is materialised. The merge compares with factLess
// alone, which is deterministic because identity keys pin entities to
// shards (see mergeFacts), and picks the minimum by a linear pass: at
// the 8–64 shard counts this store runs at that beats heap bookkeeping.
func (s *Sharded) Iterate(q Pattern, yield func(Fact) bool) bool {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].Iterate(q, yield)
	}
	type stream struct {
		cur  cursor
		head Fact
		ok   bool
	}
	streams := make([]stream, len(s.shards))
	for i, sh := range s.shards {
		st := &streams[i]
		st.cur = sh.cursor(q)
		st.head, st.ok = st.cur.next()
	}
	for {
		best := -1
		for i := range streams {
			if streams[i].ok && (best < 0 || factLess(streams[i].head, streams[best].head)) {
				best = i
			}
		}
		if best < 0 {
			return true
		}
		st := &streams[best]
		if !yield(st.head) {
			return false
		}
		st.head, st.ok = st.cur.next()
	}
}

// CountEstimate returns an upper bound on the matches for q: one shard's
// estimate for entity-constrained patterns, the sum of every shard's
// otherwise. Like Store.CountEstimate it reads postings-list lengths
// only — no statistics catalog, no scan — and is exact for patterns that
// set only Entity.
func (s *Sharded) CountEstimate(q Pattern) int {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].CountEstimate(q)
	}
	total := 0
	for _, sh := range s.shards {
		total += sh.CountEstimate(q)
	}
	return total
}

// Scan answers a query by brute force over every shard, merged; the
// reference semantics for Sharded.LookupN, mirroring Store.Scan.
func (s *Sharded) Scan(q Pattern) []Fact {
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		lists[i] = sh.Scan(q)
	}
	return mergeFacts(lists, -1)
}

// mergeFacts k-way merges canonically-sorted fact lists into one
// canonically-sorted list, stopping after limit facts (limit < 0 merges
// everything). Keys never tie across lists — a fact's identity key pins
// its entity, and entities are partitioned — so comparing with factLess
// alone is deterministic.
func mergeFacts(lists [][]Fact, limit int) []Fact {
	total := 0
	live := 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			live++
		}
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	if total == 0 {
		return nil
	}
	out := make([]Fact, 0, total)
	if live == 1 {
		for _, l := range lists {
			if len(l) > 0 {
				return append(out, l[:total]...)
			}
		}
	}
	pos := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best < 0 || factLess(l[pos[i]], lists[best][pos[best]]) {
				best = i
			}
		}
		out = append(out, lists[best][pos[best]])
		pos[best]++
	}
	return out
}
