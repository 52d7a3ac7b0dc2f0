// Package datalog answers conjunctive queries over the fused KB — the
// "actionable" half of the paper's promise. A query is a conjunction of
// triple patterns with shared variables ("find entities whose director
// also won an award"), evaluated against any store.Querier: the flat
// immutable Store, the entity-hash Sharded layout, or a wrapped querier
// such as the chaos injector, with byte-identical results across all of
// them.
//
// The design follows the janus-datalog line of work (SNIPPETS papers
// 1–3) in two deliberate simplifications:
//
//   - Greedy, statistics-free planning. Clauses are ordered by
//     selectivity estimated directly from the postings lists the store
//     already maintains (Querier.CountEstimate); there is no statistics
//     catalog to build, refresh or mistrust. Greedy ordering is provably
//     good enough for pattern-shaped queries and plans in microseconds.
//
//   - Streaming iterator execution. The plan runs as a left-deep chain
//     of index-nested-loop joins: bindings flow depth-first through the
//     clauses, each probe substituting the bound variables into a
//     store.Pattern and walking a postings list in place. No
//     intermediate relation is ever materialised; peak memory is one
//     binding row plus the result page. Joins that index probing cannot
//     serve well — value-position equijoins (the value postings are
//     hierarchy-inflated supersets) and clauses disconnected from the
//     bound prefix — fall back to a hash join that builds the clause's
//     base relation once, keyed exactly, and probes it per binding.
//
// Execution is deterministic at any parallelism: results always arrive
// in left-deep nested-loop order (first clause in canonical fact order,
// probe results in canonical order per binding), and the parallel path
// partitions the first clause's stream into fixed-size batches whose
// decomposition does not depend on the worker count.
package datalog

import (
	"fmt"
	"strings"
)

// MaxClauses bounds a query's clause count. Sixteen conjuncts is far
// beyond any real pattern query and keeps adversarial requests from
// turning the planner's O(n²) greedy loop or the executor's recursion
// into a resource sink.
const MaxClauses = 16

// Term is one position of a clause: a constant or a variable. Exactly
// one of Const and Var is meaningful; a Term with a non-empty Var is a
// variable (named without the '?' sigil).
type Term struct {
	// Const is the constant text the position must match.
	Const string
	// Var names the variable this position binds or joins on. Non-empty
	// Var wins over Const.
	Var string
}

// V returns a variable term (name without the '?' sigil).
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(text string) Term { return Term{Const: text} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in the surface grammar: variables with the
// '?' sigil, constants quoted when they contain whitespace or grammar
// metacharacters. The rendering parses back to the same term.
func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	if t.Const == "" || strings.ContainsAny(t.Const, " \t\r\n\"?.") {
		return quoteConst(t.Const)
	}
	return t.Const
}

// quoteConst wraps a constant in the grammar's double quotes, escaping
// exactly what lexQuoted unescapes: '"', '\' and newline.
func quoteConst(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Clause is one triple pattern: entity, attribute and value positions,
// each a constant or a variable, plus an optional class restriction on
// the entity. Constant value positions match hierarchically (like
// store.Pattern: "Australia" finds Adelaide); variable value positions
// join exactly.
type Clause struct {
	Entity Term
	Attr   Term
	Value  Term
	// Class restricts the clause's entity to one ontology class
	// (surface form: ?e:Film). Empty means unrestricted.
	Class string
}

// String renders the clause in the surface grammar.
func (c Clause) String() string {
	e := c.Entity.String()
	if c.Class != "" && c.Entity.IsVar() {
		e += ":" + c.Class
	}
	return e + " " + c.Attr.String() + " " + c.Value.String()
}

// Query is a conjunctive datalog query: every clause must hold
// simultaneously under one assignment of the variables. Select projects
// the result rows onto a subset of the variables (empty: all variables
// in first-appearance order); Limit caps the materialised rows while the
// total match count stays exact, mirroring /v1/query's truncation
// semantics.
type Query struct {
	Clauses []Clause
	Select  []string
	Limit   int
}

// String renders the query in the surface grammar, clauses joined with
// " . ".
func (q Query) String() string {
	parts := make([]string, len(q.Clauses))
	for i, c := range q.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " . ")
}

// Vars returns the query's variables in first-appearance order (clause
// by clause, entity then attribute then value) — the default projection
// and the column order of Result.Rows when Select is empty.
func (q Query) Vars() []string {
	var vars []string
	seen := make(map[string]bool)
	for _, c := range q.Clauses {
		for _, t := range []Term{c.Entity, c.Attr, c.Value} {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				vars = append(vars, t.Var)
			}
		}
	}
	return vars
}

// Validate checks the query's shape: clause count within bounds, no
// empty terms, class restrictions only alongside entity terms, selected
// variables actually bound by some clause, and a non-negative limit.
func (q Query) Validate() error {
	if len(q.Clauses) == 0 {
		return fmt.Errorf("datalog: query has no clauses")
	}
	if len(q.Clauses) > MaxClauses {
		return fmt.Errorf("datalog: %d clauses exceeds the limit of %d", len(q.Clauses), MaxClauses)
	}
	if q.Limit < 0 {
		return fmt.Errorf("datalog: negative limit %d", q.Limit)
	}
	for i, c := range q.Clauses {
		for pos, t := range []Term{c.Entity, c.Attr, c.Value} {
			if !t.IsVar() && t.Const == "" {
				return fmt.Errorf("datalog: clause %d: empty %s term", i+1, posName(pos))
			}
			if strings.ContainsAny(t.Var, " \t\n") {
				return fmt.Errorf("datalog: clause %d: variable %q contains whitespace", i+1, t.Var)
			}
		}
	}
	bound := make(map[string]bool)
	for _, v := range q.Vars() {
		bound[v] = true
	}
	for _, s := range q.Select {
		if !bound[s] {
			return fmt.Errorf("datalog: selected variable ?%s appears in no clause", s)
		}
	}
	return nil
}

// Result is one query's answer: Rows are the variable bindings (columns
// aligned with Vars), at most Limit of them, while Total counts every
// match and Truncated reports whether the cap cut the row set.
type Result struct {
	// Vars names the columns of Rows: the selected variables, or every
	// query variable in first-appearance order.
	Vars []string
	// Rows are the bindings in deterministic left-deep nested-loop
	// order.
	Rows [][]string
	// Total is the exact number of matching bindings, counted past any
	// limit.
	Total int
	// Truncated reports Total > len(Rows).
	Truncated bool
	// Probes counts index probes the executor issued — the executor's
	// work metric, exposed for tests, explain output and the
	// akb_datalog_probes_total counter.
	Probes int64
}

func posName(pos int) string {
	switch pos {
	case 0:
		return "entity"
	case 1:
		return "attr"
	default:
		return "value"
	}
}
