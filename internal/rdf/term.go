// Package rdf implements the Resource Description Framework data model used
// throughout the knowledge-base construction pipeline: terms (IRIs, literals,
// blank nodes), triples, confidence- and provenance-annotated statements,
// and N-Triples/N-Quads serialisation.
//
// The paper represents all "actionable knowledge" as RDF triples; every
// extractor in internal/extract emits rdf.Statement values and every fusion
// method in internal/fusion consumes them.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three syntactic categories of RDF terms.
type TermKind uint8

const (
	// KindIRI identifies a resource by an IRI reference.
	KindIRI TermKind = iota
	// KindLiteral is a (possibly typed) literal value.
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
)

// String returns the conventional name of the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Terms are small immutable values and are safe to
// copy and to use as map keys.
type Term struct {
	// Kind says which syntactic category the term belongs to.
	Kind TermKind
	// Value is the IRI string, the literal lexical form, or the blank label.
	Value string
	// Datatype is the datatype IRI for typed literals. Empty for plain
	// literals and for non-literal terms.
	Datatype string
	// Lang is the language tag for language-tagged literals, e.g. "en".
	Lang string
}

// Well-known datatype IRIs (an XSD subset sufficient for the pipeline).
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
)

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Literal returns a plain (untyped) literal term.
func Literal(lexical string) Term { return Term{Kind: KindLiteral, Value: lexical} }

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// LangLiteral returns a language-tagged literal.
func LangLiteral(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Lang: lang}
}

// Blank returns a blank node with the given label (without the "_:" prefix).
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// Integer returns an xsd:integer literal.
func Integer(v int64) Term { return TypedLiteral(fmt.Sprintf("%d", v), XSDInteger) }

// Double returns an xsd:double literal.
func Double(v float64) Term { return TypedLiteral(fmt.Sprintf("%g", v), XSDDouble) }

// Bool returns an xsd:boolean literal.
func Bool(v bool) Term { return TypedLiteral(fmt.Sprintf("%t", v), XSDBoolean) }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	default:
		return fmt.Sprintf("<<invalid term kind %d>>", t.Kind)
	}
}

// Key returns a compact unique key for the term, suitable for deduplication
// maps where the full N-Triples rendering would be wasteful.
func (t Term) Key() string {
	var b strings.Builder
	b.Grow(len(t.Value) + len(t.Datatype) + len(t.Lang) + 4)
	switch t.Kind {
	case KindIRI:
		b.WriteByte('i')
	case KindLiteral:
		b.WriteByte('l')
	case KindBlank:
		b.WriteByte('b')
	}
	b.WriteString(t.Value)
	if t.Datatype != "" {
		b.WriteByte('\x00')
		b.WriteString(t.Datatype)
	}
	if t.Lang != "" {
		b.WriteByte('\x01')
		b.WriteString(t.Lang)
	}
	return b.String()
}

// Compare orders terms: IRIs < literals < blanks, then by value, datatype,
// language. It returns -1, 0 or +1.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, o.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, o.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, o.Lang)
}

func escapeLiteral(s string) string {
	// Fast path: nothing to escape.
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	// Byte-wise iteration: every escaped character is ASCII, and non-UTF-8
	// bytes must pass through unchanged (rune iteration would replace them
	// with U+FFFD and break round-tripping).
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
