package rdf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		want string
	}{
		{"iri", IRI("http://x/a"), KindIRI, "<http://x/a>"},
		{"plain literal", Literal("hello"), KindLiteral, `"hello"`},
		{"typed literal", TypedLiteral("3", XSDInteger), KindLiteral, `"3"^^<` + XSDInteger + `>`},
		{"lang literal", LangLiteral("bonjour", "fr"), KindLiteral, `"bonjour"@fr`},
		{"blank", Blank("b0"), KindBlank, "_:b0"},
		{"integer", Integer(42), KindLiteral, `"42"^^<` + XSDInteger + `>`},
		{"bool", Bool(true), KindLiteral, `"true"^^<` + XSDBoolean + `>`},
		{"xsd string elided", TypedLiteral("s", XSDString), KindLiteral, `"s"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.term.Kind != tc.kind {
				t.Errorf("kind = %v, want %v", tc.term.Kind, tc.kind)
			}
			if got := tc.term.String(); got != tc.want {
				t.Errorf("String() = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestTermPredicates(t *testing.T) {
	if !IRI("http://x").IsIRI() || IRI("http://x").IsLiteral() || IRI("http://x").IsBlank() {
		t.Error("IRI kind predicates wrong")
	}
	if !Literal("v").IsLiteral() {
		t.Error("Literal not IsLiteral")
	}
	if !Blank("b").IsBlank() {
		t.Error("Blank not IsBlank")
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		`with "quotes"`,
		"tab\tand\nnewline",
		`back\slash`,
		"\r carriage",
		"",
		"unicode: 日本語",
	}
	for _, s := range cases {
		if got := unescapeLiteral(escapeLiteral(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		return unescapeLiteral(escapeLiteral(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTermKeyUniqueness(t *testing.T) {
	terms := []Term{
		IRI("a"), Literal("a"), Blank("a"),
		TypedLiteral("a", XSDInteger), LangLiteral("a", "en"),
		IRI("b"), Literal("b"),
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		k := tm.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, tm)
		}
		seen[k] = tm
	}
}

func TestTermCompare(t *testing.T) {
	ordered := []Term{
		IRI("a"), IRI("b"),
		Literal("a"), TypedLiteral("a", XSDInteger), Literal("b"),
		Blank("a"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "iri" || KindLiteral.String() != "literal" || KindBlank.String() != "blank" {
		t.Error("TermKind.String wrong")
	}
	if got := TermKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestNamespaceIRI(t *testing.T) {
	got := AKB.IRI("Barack Obama")
	want := "http://akb.example.org/Barack_Obama"
	if got.Value != want {
		t.Errorf("Namespace.IRI = %q, want %q", got.Value, want)
	}
}

func TestLocalName(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{IRI("http://x/path/Name"), "Name"},
		{IRI("http://x/ns#frag"), "frag"},
		{IRI("bare"), "bare"},
		{Literal("lit"), "lit"},
	}
	for _, tc := range tests {
		if got := LocalName(tc.term); got != tc.want {
			t.Errorf("LocalName(%v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

// randomTerm generates arbitrary printable terms for property tests.
func randomTerm(r *rand.Rand) Term {
	alphabet := "abcdefghijklmnopqrstuvwxyz0123456789"
	word := func(n int) string {
		b := make([]byte, 1+r.Intn(n))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	switch r.Intn(3) {
	case 0:
		return IRI("http://t.example/" + word(12))
	case 1:
		switch r.Intn(3) {
		case 0:
			return Literal(word(16))
		case 1:
			return TypedLiteral(word(8), XSDInteger)
		default:
			return LangLiteral(word(8), "en")
		}
	default:
		return Blank(word(6))
	}
}

// Generate lets testing/quick produce random Terms.
func (Term) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomTerm(r))
}

func TestCompareIsAntisymmetricProperty(t *testing.T) {
	f := func(a, b Term) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyEqualityMatchesTermEqualityProperty(t *testing.T) {
	f := func(a, b Term) bool {
		return (a == b) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
