package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"akb/internal/core"
	"akb/internal/store"
)

// pinsJSON holds the fusion scores (TP, FP, FN against the generated
// ground truth) of every seed from 1 to 100 at the two scales the
// workloads build: {"4": {"1": [tp, fp, fn], ...}, "8": {...}}.
// Regenerate it with `perfbench -write-pins 100 > perfbench/pins.json`.
//
//go:embed pins.json
var pinsJSON []byte

type fusionScore [3]int

func loadPins() (map[string]map[string]fusionScore, error) {
	var pins map[string]map[string]fusionScore
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// pipeline returns the workload pipeline for a seed and scale.
func pipeline(seed int64, scale, parallelism int, opts ...core.Option) *core.Pipeline {
	base := []core.Option{core.WithSeed(seed), core.WithScale(scale), core.WithParallelism(parallelism)}
	return core.New(append(base, opts...)...)
}

func scoreOf(res *core.Result) fusionScore {
	m := res.FusionMetrics
	return fusionScore{m.TP, m.FP, m.FN}
}

// checkScore compares a run's fusion score to the pinned one. Seeds
// outside the pinned range are reported as unpinned, not as failures.
func checkScore(rep *report, pins map[string]map[string]fusionScore, seed int64, scale int, got fusionScore) {
	want, ok := pins[strconv.Itoa(scale)][strconv.FormatInt(seed, 10)]
	if !ok {
		rep.note("fusion_score_pin", fmt.Sprintf("seed %d unpinned at scale %d (got tp/fp/fn %v)", seed, scale, got))
		return
	}
	rep.check(got == want, "fusion tp/fp/fn at seed %d scale %d: got %v, pinned %v", seed, scale, got, want)
}

// factsDigest fingerprints a fused KB: sha256 over the JSON encoding of
// every fact in canonical store order.
func factsDigest(facts []store.Fact) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, f := range store.New(facts).Facts() {
		if err := enc.Encode(f); err != nil {
			panic(err) // a Fact always encodes
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writePins prints pins.json for seeds 1..n.
func writePins(n int, parallelism int) error {
	pins := map[string]map[string]fusionScore{}
	for _, scale := range []int{buildScale, serveScale} {
		key := strconv.Itoa(scale)
		pins[key] = map[string]fusionScore{}
		for seed := int64(1); seed <= int64(n); seed++ {
			res, err := pipeline(seed, scale, parallelism).Run(context.Background())
			if err != nil {
				return fmt.Errorf("seed %d scale %d: %w", seed, scale, err)
			}
			pins[key][strconv.FormatInt(seed, 10)] = scoreOf(res)
			fmt.Fprintf(os.Stderr, "scale %d seed %d: %v\n", scale, seed, scoreOf(res))
		}
	}
	raw, err := json.Marshal(pins)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(raw, '\n'))
	return err
}
