package htmldom

import (
	"strings"
)

// TagPath is the tag-level path between two nodes in a DOM tree: the
// sequence of tags climbed from the start node up to the lowest common
// ancestor, followed by the sequence descended to the end node. It is the
// unit Algorithm 1 induces patterns over: on a template-driven page the path
// between an entity name node and each attribute node is highly regular.
type TagPath struct {
	// Up holds the tags of the nodes climbed through, starting at the start
	// node's element (for text nodes, their parent element) and ending just
	// below the common ancestor.
	Up []string
	// Apex is the tag of the lowest common ancestor.
	Apex string
	// Down holds the tags descended through, ending at the end node's
	// element.
	Down []string
}

// noisyTags are presentational tags stripped during normalisation, as
// Algorithm 1 removes "noisy tags" from extracted paths. Two paths differing
// only in <b>/<span> wrappers describe the same structural relationship.
var noisyTags = map[string]bool{
	"b": true, "i": true, "em": true, "strong": true, "u": true,
	"span": true, "small": true, "font": true, "abbr": true, "sub": true,
	"sup": true, "mark": true, "a": false, // anchors are structural: keep
}

// StepFunc renders one DOM element as a path step. TagStep uses the bare
// tag name; QualifiedStep additionally appends the element's first class
// token, which disambiguates sibling roles (label vs value cells) the way
// class-qualified XPaths do in wrapper-induction systems.
type StepFunc func(*Node) string

// TagStep is the default step renderer: the element's tag name.
func TagStep(n *Node) string { return n.Tag }

// QualifiedStep renders "tag.class" using the first token of the class
// attribute, or the bare tag when the element has no class.
func QualifiedStep(n *Node) string {
	if cls, ok := n.Attr("class"); ok {
		if fields := strings.Fields(cls); len(fields) > 0 {
			return n.Tag + "." + fields[0]
		}
	}
	return n.Tag
}

// PathBetween computes the tag path between two nodes of the same tree.
// It returns a zero path and false if the nodes are in different trees.
func PathBetween(from, to *Node) (TagPath, bool) {
	return PathBetweenFunc(from, to, TagStep)
}

// PathBetweenFunc is PathBetween with a custom step renderer.
func PathBetweenFunc(from, to *Node, step StepFunc) (TagPath, bool) {
	a, b := elementOf(from), elementOf(to)
	if a == nil || b == nil {
		return TagPath{}, false
	}
	// Collect ancestor chains (including the element itself).
	anc := map[*Node]int{}
	i := 0
	for cur := a; cur != nil; cur = cur.Parent {
		anc[cur] = i
		i++
	}
	var lca *Node
	downDepth := 0
	for cur := b; cur != nil; cur = cur.Parent {
		if _, ok := anc[cur]; ok {
			lca = cur
			break
		}
		downDepth++
	}
	if lca == nil {
		return TagPath{}, false
	}
	var p TagPath
	for cur := a; cur != lca; cur = cur.Parent {
		if cur.Kind == ElementNode {
			p.Up = append(p.Up, step(cur))
		}
	}
	if lca.Kind == ElementNode {
		p.Apex = step(lca)
	} else {
		p.Apex = "#doc"
	}
	down := make([]string, 0, downDepth)
	for cur := b; cur != lca; cur = cur.Parent {
		if cur.Kind == ElementNode {
			down = append(down, step(cur))
		}
	}
	// down was collected bottom-up; reverse to get apex-to-target order.
	for l, r := 0, len(down)-1; l < r; l, r = l+1, r-1 {
		down[l], down[r] = down[r], down[l]
	}
	p.Down = down
	return p, true
}

// elementOf returns the nearest element node: n itself, or its parent when n
// is a text node.
func elementOf(n *Node) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == ElementNode {
		return n
	}
	if n.Parent != nil && n.Parent.Kind == ElementNode {
		return n.Parent
	}
	return n.Parent
}

// Normalize returns a copy of the path with presentational ("noisy") tags
// removed from the up and down legs.
func (p TagPath) Normalize() TagPath {
	out := TagPath{Apex: p.Apex}
	for _, t := range p.Up {
		if !isNoisyStep(t) {
			out.Up = append(out.Up, t)
		}
	}
	for _, t := range p.Down {
		if !isNoisyStep(t) {
			out.Down = append(out.Down, t)
		}
	}
	return out
}

// isNoisyStep strips only bare presentational tags; a class-qualified step
// like "span.k" is structural and kept.
func isNoisyStep(t string) bool {
	if strings.ContainsRune(t, '.') {
		return false
	}
	return noisyTags[t]
}

// String renders the path canonically, e.g. "td^tr^table(tr/td)" meaning:
// climb td, tr to apex table, descend tr, td.
func (p TagPath) String() string {
	var b strings.Builder
	for _, t := range p.Up {
		b.WriteString(t)
		b.WriteByte('^')
	}
	b.WriteString(p.Apex)
	if len(p.Down) > 0 {
		b.WriteByte('(')
		b.WriteString(strings.Join(p.Down, "/"))
		b.WriteByte(')')
	}
	return b.String()
}

// Len returns the number of steps in the path.
func (p TagPath) Len() int { return len(p.Up) + 1 + len(p.Down) }

// Equal reports whether two paths are identical after normalisation.
func (p TagPath) Equal(q TagPath) bool {
	return p.Normalize().String() == q.Normalize().String()
}

// stackSteps is the normalised path length Similarity scores without
// allocating; template paths are far shorter, and longer ones fall back to
// the heap.
const stackSteps = 16

// Similarity returns a structural similarity in [0, 1] between two tag
// paths: 1 - editDistance/maxLen over the normalised step sequences (up
// tags, apex, down tags). Paths from the same page template typically
// differ by zero or one step (an extra wrapper), scoring >= 0.8; unrelated
// paths score much lower.
func Similarity(p, q TagPath) float64 {
	var abuf, bbuf [stackSteps]string
	a, b := p.appendNormSteps(abuf[:0]), q.appendNormSteps(bbuf[:0])
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	if maxLen == 0 {
		return 1
	}
	d := editDistance(a, b)
	return 1 - float64(d)/float64(maxLen)
}

// appendNormSteps appends the steps of p.Normalize() to dst, flattened in
// order: up tags, apex, down tags.
func (p TagPath) appendNormSteps(dst []string) []string {
	for _, t := range p.Up {
		if !isNoisyStep(t) {
			dst = append(dst, t)
		}
	}
	dst = append(dst, p.Apex)
	for _, t := range p.Down {
		if !isNoisyStep(t) {
			dst = append(dst, t)
		}
	}
	return dst
}

// editDistance is the Levenshtein distance over step sequences.
func editDistance(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var pbuf, cbuf [stackSteps + 1]int
	prev, cur := pbuf[:], cbuf[:]
	if len(b) > stackSteps {
		prev, cur = make([]int, len(b)+1), make([]int, len(b)+1)
	}
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// PathToRoot returns the element tags from n's element up to the tree root,
// most-specific first (e.g. td, tr, table, body, html).
func PathToRoot(n *Node) []string {
	var out []string
	for cur := elementOf(n); cur != nil; cur = cur.Parent {
		if cur.Kind == ElementNode {
			out = append(out, cur.Tag)
		}
	}
	return out
}
