package datalog

import (
	"context"
	"sync"

	"akb/internal/store"
)

// Options tunes one query execution.
type Options struct {
	// Parallelism is the number of workers the batched executor uses.
	// Values <= 1 run the serial path. Any value yields byte-identical
	// results: work is split into fixed-size batches of the first
	// clause's stream and reassembled in batch order.
	Parallelism int
	// Naive executes the clauses in query order instead of the greedy
	// plan — the benchmark baseline. Both plans produce the same bag of
	// rows and the same Total, but each emits its own nested-loop
	// order, so cross-plan comparisons should sort.
	Naive bool
}

// batchSize is the number of first-clause facts per parallel work unit.
// The decomposition is a function of the stream alone — never of the
// worker count — which is what makes parallel execution deterministic.
const batchSize = 256

// Run plans and executes the query against the store. It returns every
// binding of the query's variables (projected onto q.Select when set),
// capped at q.Limit rows with the total match count exact.
func Run(ctx context.Context, src store.Querier, q Query, opts Options) (*Result, error) {
	var (
		plan *Plan
		err  error
	)
	if opts.Naive {
		plan, err = NaivePlan(q, src)
	} else {
		plan, err = PlanQuery(q, src)
	}
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, src, q, plan, opts)
}

// RunPlan executes a pre-built plan. The plan must come from PlanQuery
// or NaivePlan over the same query.
func RunPlan(ctx context.Context, src store.Querier, q Query, plan *Plan, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sh, err := compile(ctx, src, q, plan)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism > 1 {
		return runParallel(sh, opts.Parallelism)
	}
	r := newRunner(sh)
	r.scan()
	if r.err != nil {
		return nil, r.err
	}
	return &Result{
		Vars:      sh.outVars,
		Rows:      r.rows,
		Total:     r.total,
		Truncated: r.total > len(r.rows),
		Probes:    r.probes + sh.buildProbes,
	}, nil
}

// shared is the per-execution read-only state: the compiled steps
// (including any hash relations, built once), the store handles and the
// projection. Parallel workers share one instance.
type shared struct {
	ctx     context.Context
	src     store.Querier
	steps   []execStep
	nvars   int
	selIdx  []int
	outVars []string
	limit   int
	// buildProbes counts the index reads spent building hash relations,
	// charged once to the final result rather than per worker.
	buildProbes int64
}

// execStep is one compiled plan step: the clause's constant skeleton
// plus, per position (entity, attr, value), what to do with a variable
// there — substitute a bound slot into the pattern before probing
// (subs), bind the fact's field into a slot (binds), or equality-check
// the field against a slot bound earlier in the same clause (checks).
// Slots are indices into the runner's binding row; -1 means inactive.
type execStep struct {
	base     store.Pattern
	strategy Strategy
	subs     [3]int
	binds    [3]int
	checks   [3]int
	// keySlot is the binding slot whose value keys the hash relation;
	// -1 on a cross-product hash step (single bucket under "").
	keySlot int
	// buckets is the hash relation for StrategyHash steps: the clause's
	// base relation grouped by exact value, facts in canonical store
	// order within each bucket so probing emits nested-loop order.
	buckets map[string][]store.Fact
}

// compile lowers the plan to executable steps and builds the hash
// relations. Variable slots are assigned in first-appearance order over
// the PLAN's step order (projection still reports the query's own
// variable order).
func compile(ctx context.Context, src store.Querier, q Query, plan *Plan) (*shared, error) {
	sh := &shared{
		ctx:   ctx,
		src:   src,
		steps: make([]execStep, len(plan.Steps)),
		limit: q.Limit,
	}

	slot := make(map[string]int)
	slotOf := func(v string) int {
		s, ok := slot[v]
		if !ok {
			s = len(slot)
			slot[v] = s
		}
		return s
	}
	bound := make(map[string]bool)
	for i, ps := range plan.Steps {
		st := &sh.steps[i]
		st.base = basePattern(ps.Clause)
		st.strategy = ps.Strategy
		st.subs = [3]int{-1, -1, -1}
		st.binds = [3]int{-1, -1, -1}
		st.checks = [3]int{-1, -1, -1}
		st.keySlot = -1
		inClause := make(map[string]bool)
		for pos, t := range []Term{ps.Clause.Entity, ps.Clause.Attr, ps.Clause.Value} {
			if !t.IsVar() {
				continue
			}
			s := slotOf(t.Var)
			switch {
			case bound[t.Var]:
				st.subs[pos] = s
			case inClause[t.Var]:
				st.checks[pos] = s
			default:
				st.binds[pos] = s
				inClause[t.Var] = true
			}
		}
		for _, t := range []Term{ps.Clause.Entity, ps.Clause.Attr, ps.Clause.Value} {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
		if st.strategy == StrategyHash {
			st.keySlot = st.subs[2]
			st.buckets = make(map[string][]store.Fact)
			sh.buildProbes++
			complete := src.Iterate(st.base, func(f store.Fact) bool {
				k := ""
				if st.keySlot >= 0 {
					k = f.Value
				}
				st.buckets[k] = append(st.buckets[k], f)
				return ctx.Err() == nil
			})
			if !complete {
				return nil, ctx.Err()
			}
		}
	}
	sh.nvars = len(slot)

	vars := q.Vars()
	sel := q.Select
	if len(sel) == 0 {
		sel = vars
	}
	sh.outVars = sel
	sh.selIdx = make([]int, len(sel))
	for i, v := range sel {
		sh.selIdx[i] = slot[v]
	}
	return sh, nil
}

// runner is the mutable side of one execution stream: the single
// reusable binding row, the DFS closures (hoisted once per runner, not
// per probe), and the output accumulator. The serial path uses one
// runner over the whole first-clause stream; each parallel worker has
// its own and is fed batches.
type runner struct {
	sh     *shared
	row    []string
	yields []func(store.Fact) bool
	rows   [][]string
	total  int
	probes int64
	tick   int
	err    error
}

func newRunner(sh *shared) *runner {
	r := &runner{
		sh:     sh,
		row:    make([]string, sh.nvars),
		yields: make([]func(store.Fact) bool, len(sh.steps)),
	}
	last := len(sh.steps) - 1
	for d := range sh.steps {
		d := d
		st := &sh.steps[d]
		r.yields[d] = func(f store.Fact) bool {
			// Binds run before checks: a repeated variable's first
			// occurrence (the bind) is always at an earlier position than
			// its re-occurrence (the check), so the check must see THIS
			// fact's binding, not whatever the previous fact left in the
			// slot. A slot written before a failing check is harmless —
			// the next fact's bind overwrites it before any deeper read.
			if b := st.binds[0]; b >= 0 {
				r.row[b] = f.Entity
			}
			if b := st.binds[1]; b >= 0 {
				r.row[b] = f.Attr
			}
			if b := st.binds[2]; b >= 0 {
				r.row[b] = f.Value
			}
			if c := st.checks[0]; c >= 0 && r.row[c] != f.Entity {
				return true
			}
			if c := st.checks[1]; c >= 0 && r.row[c] != f.Attr {
				return true
			}
			if c := st.checks[2]; c >= 0 && r.row[c] != f.Value {
				return true
			}
			if d == last {
				return r.emit()
			}
			return r.advance(d + 1)
		}
	}
	return r
}

// scan runs the whole plan from the first clause's full stream — the
// serial entry point.
func (r *runner) scan() {
	r.probes++
	r.sh.src.Iterate(r.sh.steps[0].base, r.yields[0])
}

// advance evaluates step d under the current binding row: substitute
// the bound slots into the pattern and stream the matches (probe), or
// fetch the pre-built hash bucket. Returns false only to abort on
// context cancellation — matches are never cut short, so Total stays
// exact.
func (r *runner) advance(d int) bool {
	r.tick++
	if r.tick&1023 == 0 && r.sh.ctx.Err() != nil {
		r.err = r.sh.ctx.Err()
		return false
	}
	st := &r.sh.steps[d]
	if st.strategy == StrategyHash {
		k := ""
		if st.keySlot >= 0 {
			k = r.row[st.keySlot]
		}
		r.probes++
		for _, f := range st.buckets[k] {
			if !r.yields[d](f) {
				return false
			}
		}
		return true
	}
	p := st.base
	if s := st.subs[0]; s >= 0 {
		p.Entity = r.row[s]
	}
	if s := st.subs[1]; s >= 0 {
		p.Attr = r.row[s]
	}
	if s := st.subs[2]; s >= 0 {
		// Bound variables join on the accepted value verbatim;
		// hierarchical generalisation applies only to constants.
		p.Value, p.Exact = r.row[s], true
	}
	r.probes++
	return r.sh.src.Iterate(p, r.yields[d])
}

// emit records one complete binding: the total is always counted, the
// projected row is kept only while under the limit.
func (r *runner) emit() bool {
	r.total++
	if r.sh.limit > 0 && len(r.rows) >= r.sh.limit {
		return true
	}
	out := make([]string, len(r.sh.selIdx))
	for i, s := range r.sh.selIdx {
		out[i] = r.row[s]
	}
	r.rows = append(r.rows, out)
	return true
}

// runParallel splits the first clause's stream into fixed-size batches,
// fans them out to workers, and reassembles the per-batch results in
// batch order. Because the batch decomposition depends only on the
// stream and each batch runs the same DFS the serial path would, the
// assembled rows are byte-identical to the serial result at any worker
// count.
func runParallel(sh *shared, workers int) (*Result, error) {
	type batch struct {
		seq   int
		facts []store.Fact
	}
	type batchResult struct {
		seq    int
		rows   [][]string
		total  int
		probes int64
		err    error
	}

	in := make(chan batch, workers)
	out := make(chan batchResult, workers)

	// A panic on a producer or worker goroutine (a store fault) cannot be
	// recovered by the caller's middleware; the first one is caught here
	// and re-raised on the calling goroutine once every goroutine is done.
	var (
		panicOnce sync.Once
		panicVal  any
	)
	catch := func() {
		if v := recover(); v != nil {
			panicOnce.Do(func() { panicVal = v })
		}
	}

	var nbatch int
	go func() {
		defer close(in)
		defer catch()
		seq := 0
		buf := make([]store.Fact, 0, batchSize)
		send := func() bool {
			select {
			case in <- batch{seq: seq, facts: buf}:
				seq++
				buf = make([]store.Fact, 0, batchSize)
				return true
			case <-sh.ctx.Done():
				return false
			}
		}
		complete := sh.src.Iterate(sh.steps[0].base, func(f store.Fact) bool {
			buf = append(buf, f)
			return len(buf) < batchSize || send()
		})
		if complete && len(buf) > 0 {
			send()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				for range in {
				}
			}()
			defer catch()
			r := newRunner(sh)
			for b := range in {
				r.rows, r.total, r.probes, r.err = nil, 0, 0, nil
				for _, f := range b.facts {
					if !r.yields[0](f) {
						break
					}
				}
				out <- batchResult{seq: b.seq, rows: r.rows, total: r.total, probes: r.probes, err: r.err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	bySeq := make(map[int]batchResult)
	for br := range out {
		bySeq[br.seq] = br
		if br.seq >= nbatch {
			nbatch = br.seq + 1
		}
	}
	if panicVal != nil {
		panic(panicVal)
	}
	if err := sh.ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Vars: sh.outVars, Probes: 1 + sh.buildProbes}
	for seq := 0; seq < nbatch; seq++ {
		br, ok := bySeq[seq]
		if !ok {
			// A batch vanished without a context error: impossible unless
			// cancellation raced the producer; report cancellation.
			return nil, context.Canceled
		}
		if br.err != nil {
			return nil, br.err
		}
		res.Total += br.total
		res.Probes += br.probes
		for _, row := range br.rows {
			if sh.limit > 0 && len(res.Rows) >= sh.limit {
				break
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Truncated = res.Total > len(res.Rows)
	return res, nil
}
