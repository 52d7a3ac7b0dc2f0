package htmldom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func infoboxDoc() *Node {
	return Parse(`<html><body>
	<h1 class="entity">Casablanca</h1>
	<table class="infobox">
	  <tr><th>Director</th><td>Michael Curtiz</td></tr>
	  <tr><th>Genre</th><td><b>Drama</b></td></tr>
	</table>
	</body></html>`)
}

func TestPathBetweenSameRow(t *testing.T) {
	doc := infoboxDoc()
	ths := doc.FindAll("th")
	tds := doc.FindAll("td")
	p, ok := PathBetween(ths[0], tds[0])
	if !ok {
		t.Fatal("no path between th and td in same row")
	}
	if p.Apex != "tr" {
		t.Errorf("apex = %q, want tr", p.Apex)
	}
	if p.String() != "th^tr(td)" {
		t.Errorf("path = %q, want th^tr(td)", p.String())
	}
}

func TestPathBetweenAcrossRows(t *testing.T) {
	doc := infoboxDoc()
	h1 := doc.Find("h1")
	tds := doc.FindAll("td")
	p0, ok0 := PathBetween(h1, tds[0])
	p1, ok1 := PathBetween(h1, tds[1])
	if !ok0 || !ok1 {
		t.Fatal("paths not found")
	}
	if p0.Apex != "body" || p1.Apex != "body" {
		t.Errorf("apexes = %q, %q; want body", p0.Apex, p1.Apex)
	}
	// Second path passes through <b>; after normalisation both are equal.
	if !p0.Equal(p1) {
		t.Errorf("template paths should be equal after normalisation: %q vs %q",
			p0.Normalize().String(), p1.Normalize().String())
	}
	if Similarity(p0, p1) != 1 {
		t.Errorf("similarity = %g, want 1", Similarity(p0, p1))
	}
}

func TestPathBetweenTextNodes(t *testing.T) {
	doc := infoboxDoc()
	texts := doc.TextNodes()
	// Find the text nodes for "Director" and "Michael Curtiz".
	var dir, curtiz *Node
	for _, tn := range texts {
		switch NormalizeSpace(tn.Text) {
		case "Director":
			dir = tn
		case "Michael Curtiz":
			curtiz = tn
		}
	}
	if dir == nil || curtiz == nil {
		t.Fatal("text nodes not found")
	}
	p, ok := PathBetween(dir, curtiz)
	if !ok || p.Apex != "tr" {
		t.Fatalf("path between text nodes = %v, %v", p, ok)
	}
}

func TestPathBetweenDifferentTrees(t *testing.T) {
	a := Parse(`<p>one</p>`).Find("p")
	b := Parse(`<p>two</p>`).Find("p")
	if _, ok := PathBetween(a, b); ok {
		t.Error("path found across distinct trees")
	}
}

func TestPathSelf(t *testing.T) {
	doc := infoboxDoc()
	h1 := doc.Find("h1")
	p, ok := PathBetween(h1, h1)
	if !ok || p.Apex != "h1" || len(p.Up) != 0 || len(p.Down) != 0 {
		t.Errorf("self path = %+v, %v", p, ok)
	}
	if p.Len() != 1 {
		t.Errorf("self path Len = %d, want 1", p.Len())
	}
}

func TestNormalizeRemovesNoisyTags(t *testing.T) {
	p := TagPath{Up: []string{"b", "td"}, Apex: "tr", Down: []string{"span", "td", "i"}}
	n := p.Normalize()
	if len(n.Up) != 1 || n.Up[0] != "td" {
		t.Errorf("normalised up = %v", n.Up)
	}
	if len(n.Down) != 1 || n.Down[0] != "td" {
		t.Errorf("normalised down = %v", n.Down)
	}
}

func TestSimilarityBounds(t *testing.T) {
	a := TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td"}}
	b := TagPath{Up: []string{"li"}, Apex: "ul", Down: []string{"li"}}
	if s := Similarity(a, a); s != 1 {
		t.Errorf("self similarity = %g", s)
	}
	if s := Similarity(a, b); s != 0 {
		t.Errorf("disjoint similarity = %g, want 0", s)
	}
	c := TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"th"}}
	s := Similarity(a, c)
	if s <= 0 || s >= 1 {
		t.Errorf("one-step-different similarity = %g, want in (0,1)", s)
	}
}

func TestSimilarityPropertyBounds(t *testing.T) {
	tags := []string{"div", "td", "tr", "table", "ul", "li", "p", "b"}
	gen := func(r *rand.Rand) TagPath {
		mk := func() []string {
			n := r.Intn(4)
			out := make([]string, n)
			for i := range out {
				out[i] = tags[r.Intn(len(tags))]
			}
			return out
		}
		return TagPath{Up: mk(), Apex: tags[r.Intn(len(tags))], Down: mk()}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := gen(r), gen(r)
		s := Similarity(p, q)
		if s < 0 || s > 1 {
			return false
		}
		// Symmetry.
		if s != Similarity(q, p) {
			return false
		}
		// Identity.
		return Similarity(p, p) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPathToRoot(t *testing.T) {
	doc := infoboxDoc()
	td := doc.FindAll("td")[0]
	got := PathToRoot(td)
	want := []string{"td", "tr", "table", "body", "html"}
	if len(got) != len(want) {
		t.Fatalf("PathToRoot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 1},
		{nil, []string{"a", "b"}, 2},
		{[]string{"a", "b", "c"}, []string{"a", "x", "c"}, 1},
		{[]string{"a", "b"}, []string{"b", "a"}, 2},
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 0},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// refSimilarity is Similarity written the plain way: Normalize, flatten
// into a fresh step slice, and run a heap-row Levenshtein. The
// stack-buffer Similarity must agree with it on every input.
func refSimilarity(p, q TagPath) float64 {
	flat := func(p TagPath) []string {
		n := p.Normalize()
		return append(append(append([]string{}, n.Up...), n.Apex), n.Down...)
	}
	a, b := flat(p), flat(q)
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return 1 - float64(prev[len(b)])/float64(max(len(a), len(b)))
}

func TestSimilarityMatchesReference(t *testing.T) {
	long := func(n int, tag string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = []string{tag, "div", "b", "span.k"}[i%4]
		}
		return out
	}
	cases := []struct {
		name string
		p, q TagPath
	}{
		{"identical", TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td"}},
			TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td"}}},
		{"noisy wrappers", TagPath{Up: []string{"b", "td"}, Apex: "tr", Down: []string{"span", "td", "i"}},
			TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td"}}},
		{"qualified steps kept", TagPath{Up: []string{"span.k", "li"}, Apex: "ul", Down: []string{"li", "span.v"}},
			TagPath{Up: []string{"span", "li"}, Apex: "ul", Down: []string{"li", "span"}}},
		{"empty legs", TagPath{Apex: "h1"}, TagPath{Up: []string{"td"}, Apex: "tr"}},
		{"all noise", TagPath{Up: []string{"b", "i"}, Apex: "", Down: []string{"em"}}, TagPath{}},
		{"one long", TagPath{Up: long(20, "td"), Apex: "table", Down: long(3, "tr")},
			TagPath{Up: []string{"td"}, Apex: "table", Down: []string{"tr"}}},
		{"both long", TagPath{Up: long(15, "td"), Apex: "table", Down: long(15, "tr")},
			TagPath{Up: long(17, "li"), Apex: "table", Down: long(9, "tr")}},
	}
	for _, c := range cases {
		for _, pq := range [][2]TagPath{{c.p, c.q}, {c.q, c.p}} {
			if got, want := Similarity(pq[0], pq[1]), refSimilarity(pq[0], pq[1]); got != want {
				t.Errorf("%s: Similarity(%v, %v) = %g, reference %g", c.name, pq[0], pq[1], got, want)
			}
		}
	}
	tags := []string{"div", "td", "tr", "table", "li", "b", "span", "span.k", "i"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() []string {
			out := make([]string, r.Intn(2*stackSteps))
			for i := range out {
				out[i] = tags[r.Intn(len(tags))]
			}
			return out
		}
		p := TagPath{Up: mk(), Apex: tags[r.Intn(len(tags))], Down: mk()}
		q := TagPath{Up: mk(), Apex: tags[r.Intn(len(tags))], Down: mk()}
		return Similarity(p, q) == refSimilarity(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityAllocFree(t *testing.T) {
	p := TagPath{Up: []string{"b", "td.value", "tr"}, Apex: "table", Down: []string{"tr", "th", "span"}}
	q := TagPath{Up: []string{"td", "tr"}, Apex: "tbody", Down: []string{"tr", "th.label"}}
	var s float64
	allocs := testing.AllocsPerRun(100, func() { s = Similarity(p, q) })
	if allocs != 0 {
		t.Errorf("Similarity allocates %.1f times per call on short paths, want 0", allocs)
	}
	if s <= 0 || s >= 1 {
		t.Errorf("Similarity = %g, want in (0,1)", s)
	}
}
