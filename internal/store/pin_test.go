package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"akb/internal/core"
	"akb/internal/rdf"
)

// The seed-1 default pipeline's fused KB, pinned across commits. A change
// that moves either hash changes the KB the pipeline builds; update a pin
// only for an intended change and say why in CHANGES.md.
const (
	pinSeed1Facts     = 3184
	pinSeed1FactsHash = "58a25ac971ed745740c255aa0af34e908f44cc647250a2a4a5889d5e7c809bd2"
	// pinSeed1NTriples is the hash of `akb export`'s output.
	pinSeed1NTriples = "0ec46815bbb1422496b8cf79c475c95ab7577691e210d0506b6818562d24f779"
)

func TestSeed1KBPinned(t *testing.T) {
	res, err := core.New(core.WithSeed(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Hash the store's canonical order: ResultFacts' raw order is not
	// stable from run to run.
	facts := New(ResultFacts(res)).Facts()
	if len(facts) != pinSeed1Facts {
		t.Errorf("fused facts = %d, pinned %d", len(facts), pinSeed1Facts)
	}
	js, err := json.Marshal(facts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(js); got != pinSeed1FactsHash {
		t.Errorf("fused facts sha256 = %s, pinned %s", got, pinSeed1FactsHash)
	}
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(&nt, res.Augmented); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(nt.Bytes()); got != pinSeed1NTriples {
		t.Errorf("N-Triples export sha256 = %s, pinned %s", got, pinSeed1NTriples)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
