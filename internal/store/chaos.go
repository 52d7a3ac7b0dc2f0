package store

import (
	"fmt"
	"sync/atomic"
	"time"

	"akb/internal/resilience"
)

// ChaosController drives deterministic fault injection on the serving
// path. It reuses the pipeline's resilience.FaultPlan — the same seeded
// (stage, attempt) decisions that chaos-test extraction stages — but
// aims it at store reads: each faultable read consults the plan under
// one of the ChaosStage* names and may be slowed (StageFault.Latency) or
// blown up (StageFault.FailProb) before the real store answers.
//
// Injected failures surface as panics, not error returns: the Querier
// interface is error-free by design (reads of an immutable store cannot
// organically fail), so a chaos failure models the only failure shape
// left — a bug — and must be absorbed by the server's recovery
// middleware, never by the store. Transient plan entries panic with an
// error value (errors.Is(..., resilience.ErrInjected) holds), permanent
// entries panic with a plain string; both exercise the same recovery
// path while staying distinguishable in tests.
//
// One controller can wrap any number of store generations (hot reload
// swaps stores under a running server), sharing a single on/off switch,
// call sequence and fault counters across all of them.
type ChaosController struct {
	plan    *resilience.FaultPlan
	enabled atomic.Bool
	calls   atomic.Int64
	slowed  atomic.Int64
	panics  atomic.Int64
}

// Stage names the chaos querier consults the plan under. LookupN and
// Iterate share ChaosStageLookup: both are pattern reads. Summary
// methods (Len, EntityCount, Classes) and CountEstimate are never
// faulted: the summaries back the health endpoints, whose liveness
// reporting must stay reliable even under full chaos, and CountEstimate
// is O(1) metadata like them.
const (
	ChaosStageEntity  = "store/entity"
	ChaosStageTriples = "store/triples"
	ChaosStageLookup  = "store/lookup"
)

// NewChaosController builds a controller over the plan. The controller
// starts enabled; SetEnabled(false) turns injection off without
// unwrapping queriers, which is how the chaos harness proves a faulted
// server returns to clean service.
func NewChaosController(plan *resilience.FaultPlan) *ChaosController {
	c := &ChaosController{plan: plan}
	c.enabled.Store(true)
	return c
}

// Wrap returns a Querier that injects the controller's faults in front
// of q. The signature matches serve.Config.WrapQuerier, so the same
// controller re-wraps every store generation a hot-reloading server
// swaps in.
func (c *ChaosController) Wrap(q Querier) Querier { return &chaosQuerier{ctl: c, base: q} }

// SetEnabled switches injection on or off for every querier the
// controller has wrapped.
func (c *ChaosController) SetEnabled(on bool) { c.enabled.Store(on) }

// Calls returns how many faultable store reads passed through wrapped
// queriers while injection was enabled.
func (c *ChaosController) Calls() int64 { return c.calls.Load() }

// Slowed returns how many reads had latency injected.
func (c *ChaosController) Slowed() int64 { return c.slowed.Load() }

// Panics returns how many reads were failed by injection.
func (c *ChaosController) Panics() int64 { return c.panics.Load() }

// inject applies the plan to one read. The global call sequence is the
// plan's attempt number, so a single-threaded request stream replays
// byte-identically for a given seed.
func (c *ChaosController) inject(stage string) {
	if !c.enabled.Load() {
		return
	}
	attempt := int(c.calls.Add(1))
	delay, err := c.plan.Inject(stage, attempt)
	if delay > 0 {
		c.slowed.Add(1)
		time.Sleep(delay)
	}
	if err != nil {
		c.panics.Add(1)
		if resilience.IsTransient(err) {
			panic(err)
		}
		panic(fmt.Sprintf("chaos: %v", err))
	}
}

// chaosQuerier is one wrapped store generation; see ChaosController.
type chaosQuerier struct {
	ctl  *ChaosController
	base Querier
}

func (q *chaosQuerier) Len() int                    { return q.base.Len() }
func (q *chaosQuerier) EntityCount() int            { return q.base.EntityCount() }
func (q *chaosQuerier) Classes() []string           { return q.base.Classes() }
func (q *chaosQuerier) CountEstimate(p Pattern) int { return q.base.CountEstimate(p) }

func (q *chaosQuerier) Entity(id string) []Fact {
	q.ctl.inject(ChaosStageEntity)
	return q.base.Entity(id)
}

func (q *chaosQuerier) Triples(entity, attr string) []Fact {
	q.ctl.inject(ChaosStageTriples)
	return q.base.Triples(entity, attr)
}

func (q *chaosQuerier) LookupN(p Pattern, limit int) ([]Fact, int) {
	q.ctl.inject(ChaosStageLookup)
	return q.base.LookupN(p, limit)
}

func (q *chaosQuerier) Iterate(p Pattern, yield func(Fact) bool) bool {
	q.ctl.inject(ChaosStageLookup)
	return q.base.Iterate(p, yield)
}
