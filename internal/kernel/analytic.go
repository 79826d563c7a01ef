package kernel

import (
	"time"

	"darkarts/internal/cpu"
)

// AnalyticWorkload is a Workload whose effect on the machine can be
// advanced in closed form: RunSlices(core, d, n) must leave every piece of
// observable state — counter banks, the workload's own accumulators, and
// its random-number stream — bit-identical to n consecutive RunSlice(core,
// d) calls. Implementations must also be perpetual and steady while
// queued: Done stays false and the slice share stays constant, so the
// scheduler's packing decision cannot change across the advanced span.
// The rate models (internal/workload, internal/miner) qualify; ISA-backed
// workloads execute real instructions and do not.
type AnalyticWorkload interface {
	Workload
	// RunSlices runs n consecutive slices of duration d on core.
	RunSlices(core *cpu.Core, d time.Duration, n int)
}

// FastForward advances the simulation by d of simulated time without
// per-quantum dispatch, iff the whole span can be advanced analytically:
// the runnable set is empty (time moves for free) or purely rate-model
// with a slice plan that covers every runnable task. Counter banks, RSX
// accumulators, window state, rng streams, the sample count, and any
// alerts raised are bit-identical to Run(d) — the differential tests in
// analytic_test.go hold the two paths to equality field by field.
//
// It returns false — leaving all state untouched — when the span needs
// per-quantum simulation (ISA work queued, an oversubscribed plan, or a
// machine-local metrics registry whose per-quantum observations would be
// skipped). Callers fall back to Run.
//
// Alert callbacks fire after the whole span, in alert order (Run fires
// them per quantum; the order, which is all the fleet barrier consumes,
// is identical).
func (k *Kernel) FastForward(d time.Duration) bool {
	k.mu.Lock()
	base := len(k.alerts)
	ok := k.fastForwardLocked(k.now + d)
	fired := k.alerts[base:len(k.alerts):len(k.alerts)]
	k.mu.Unlock()
	if k.onAlert != nil {
		for _, a := range fired {
			k.onAlert(a)
		}
	}
	return ok
}

// fastForwardLocked advances k.now to the first quantum boundary at or
// past end (the same overshoot Run produces), entirely analytically, or
// does nothing and reports false. Caller holds k.mu.
//
//cryptojack:locked
func (k *Kernel) fastForwardLocked(end time.Duration) bool {
	ts := k.cfg.TimeSlice
	if k.now >= end {
		return true
	}
	n := int((end - k.now + ts - 1) / ts) // quanta Run would execute
	// Pre-scan the runnable set: every runnable task must be an analytic
	// rate model for the plan to be stationary across the span.
	idle := true
	for i := k.runqHead; i < len(k.runq); i++ {
		t := k.runq[i]
		if t.exited {
			continue
		}
		idle = false
		if _, ok := t.workload.(AnalyticWorkload); !ok || t.workload.Done() {
			return false
		}
	}
	if idle {
		// Nothing runnable: each quantum only advances the clock.
		k.now += time.Duration(n) * ts
		return true
	}
	if k.om != nil {
		// A machine-local registry observes every quantum (phase timings,
		// per-switch deltas); skipping those observations would fork the
		// metric stream, so instrumented kernels always simulate.
		return false
	}
	// Build the slice plan once. If it does not absorb the whole queue the
	// plan rotates quantum to quantum and the span is not analytic —
	// restore the queue exactly and bail.
	k.ffScratch = append(k.ffScratch[:0], k.runq[k.runqHead:]...)
	head0 := k.runqHead
	k.buildPlan()
	if k.runqHead != len(k.runq) {
		copy(k.runq[head0:], k.ffScratch)
		k.runqHead = head0
		return false
	}
	// The plan is stationary: with no exits and no queue remainder,
	// rebuildRunq reproduces pop order, so every quantum in the span would
	// build this exact plan. Between window crossings the only observable
	// per-quantum effects are commutative (sample count, cumulative RSX
	// adds — checkWindow returns before reading anything), so those quanta
	// batch into single RunSlices calls; each crossing quantum runs through
	// the exact serial path so window resets, threshold checks, and alert
	// ordering (including multi-task thread groups and session
	// aggregation) match per-quantum simulation bit for bit.
	for remaining := n; remaining > 0; {
		batch := remaining
		if k.tunables.Enabled {
			for i := range k.plan {
				t := k.plan[i].task
				if t.UID == 0 && !k.tunables.MonitorRoot {
					continue
				}
				batch = min(batch, k.quantaBeforeCrossing(t.rsxPtr))
				if k.tunables.SessionAggregation && t.sessPtr != nil && t.sessPtr != t.rsxPtr {
					batch = min(batch, k.quantaBeforeCrossing(t.sessPtr))
				}
			}
		}
		if batch > 0 {
			k.runPlanBatch(batch)
			k.now += time.Duration(batch) * ts
			remaining -= batch
			continue
		}
		// Crossing quantum: simulate it exactly.
		k.executePlan()
		k.accountPlan()
		k.now += ts
		remaining--
	}
	k.rebuildRunq()
	return true
}

// quantaBeforeCrossing returns how many quanta may elapse before g's next
// monitoring-window boundary: the largest j such that none of the next j
// context switches satisfies switchTime-windowStart >= period.
//
//cryptojack:locked
func (k *Kernel) quantaBeforeCrossing(g *TgidRSX) int {
	ts := k.cfg.TimeSlice
	due := k.tunables.periodFor(g) - (k.now - g.windowStart)
	if due <= ts {
		return 0 // the very next switch crosses
	}
	return int((due+ts-1)/ts) - 1
}

// runPlanBatch executes batch consecutive quanta of the stationary plan:
// per entry, one RunSlices call bracketed by counter reads stands in for
// batch per-quantum slices, and the commutative accounting (sample count,
// cumulative RSX/session adds) applies in one step. Window checks are the
// caller's responsibility — the batch must not contain a crossing.
//
//cryptojack:locked
func (k *Kernel) runPlanBatch(batch int) {
	ts := k.cfg.TimeSlice
	for i := range k.plan {
		p := &k.plan[i]
		core := k.machine.Core(p.core)
		last := k.coreLast[p.core]
		p.task.workload.(AnalyticWorkload).RunSlices(core, ts, batch)
		cur := core.Counters().RSX()
		k.coreLast[p.core] = cur
		if !k.tunables.Enabled {
			continue
		}
		t := p.task
		if t.UID == 0 && !k.tunables.MonitorRoot {
			continue
		}
		// cur-last telescopes the per-quantum deltas exactly.
		delta := cur - last
		k.samples += uint64(batch)
		t.rsxPtr.add(delta)
		if k.tunables.SessionAggregation && t.sessPtr != nil && t.sessPtr != t.rsxPtr {
			t.sessPtr.add(delta)
		}
	}
}
