package store

import (
	"errors"
	"testing"
	"time"

	"akb/internal/resilience"
)

func TestChaosQuerierInjectsPanics(t *testing.T) {
	base := New(testFacts())
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:    7,
		Default: resilience.StageFault{FailProb: 1, Transient: true},
	})
	q := ctl.Wrap(base)

	recovered := func(fn func()) (rec any) {
		defer func() { rec = recover() }()
		fn()
		return nil
	}
	rec := recovered(func() { q.LookupN(Pattern{Class: "Film"}, 0) })
	if rec == nil {
		t.Fatal("FailProb=1 did not panic")
	}
	err, ok := rec.(error)
	if !ok || !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("transient fault panicked with %v, want ErrInjected error", rec)
	}
	if rec := recovered(func() { q.Entity("Casablanca") }); rec == nil {
		t.Fatal("Entity not faulted")
	}
	if rec := recovered(func() { q.Triples("Casablanca", "language") }); rec == nil {
		t.Fatal("Triples not faulted")
	}
	if rec := recovered(func() { q.Iterate(Pattern{Class: "Film"}, func(Fact) bool { return true }) }); rec == nil {
		t.Fatal("Iterate not faulted")
	}
	if ctl.Panics() != 4 || ctl.Calls() != 4 {
		t.Errorf("panics=%d calls=%d, want 4/4", ctl.Panics(), ctl.Calls())
	}

	// Permanent faults panic with a string, not an error value.
	ctl2 := NewChaosController(&resilience.FaultPlan{Seed: 7, Default: resilience.StageFault{FailProb: 1}})
	rec = recovered(func() { ctl2.Wrap(base).LookupN(Pattern{Class: "Film"}, 0) })
	if _, isErr := rec.(error); rec == nil || isErr {
		t.Fatalf("permanent fault panicked with %v, want plain string", rec)
	}
}

func TestChaosQuerierDisableRestoresCleanReads(t *testing.T) {
	base := New(testFacts())
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:    1,
		Default: resilience.StageFault{FailProb: 1, Latency: time.Millisecond},
	})
	q := ctl.Wrap(base)
	ctl.SetEnabled(false)

	// With injection off the wrapper is transparent: same answers, no
	// panics, no latency bookkeeping.
	got, _ := q.LookupN(Pattern{Class: "Film"}, 0)
	want := base.Lookup(Pattern{Class: "Film"})
	if len(got) != len(want) {
		t.Fatalf("disabled chaos changed results: %d vs %d", len(got), len(want))
	}
	if ctl.Calls() != 0 || ctl.Panics() != 0 || ctl.Slowed() != 0 {
		t.Errorf("disabled chaos still counted: calls=%d panics=%d slowed=%d", ctl.Calls(), ctl.Panics(), ctl.Slowed())
	}

	// Summary methods and CountEstimate are never faulted even when
	// enabled — they back the health endpoints and entity existence tests.
	ctl.SetEnabled(true)
	if q.Len() != base.Len() || q.EntityCount() != base.EntityCount() || len(q.Classes()) != len(base.Classes()) {
		t.Error("summary methods disagree with base store")
	}
	if p := (Pattern{Class: "Film"}); q.CountEstimate(p) != base.CountEstimate(p) {
		t.Error("CountEstimate disagrees with base store")
	}
	if ctl.Calls() != 0 {
		t.Errorf("summary methods consumed fault budget: calls=%d", ctl.Calls())
	}
}

func TestChaosQuerierLatency(t *testing.T) {
	base := New(testFacts())
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:    1,
		Default: resilience.StageFault{Latency: 5 * time.Millisecond},
	})
	q := ctl.Wrap(base)
	start := time.Now()
	q.LookupN(Pattern{Class: "Film"}, 0)
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("latency fault not applied: took %v", d)
	}
	if ctl.Slowed() != 1 {
		t.Errorf("slowed = %d, want 1", ctl.Slowed())
	}
}
