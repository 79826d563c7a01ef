package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"time"

	"darkarts/internal/fleet"
	"darkarts/internal/machine"
)

// expect is one expected detection: a miner the workload placed, and the
// simulated deadline by which its first alert must appear (its monitoring
// window plus one round, counted from placement).
type expect struct {
	id      int
	machine int
	tgids   []int
	placed  time.Duration // simulated placement time
	window  time.Duration
	slack   time.Duration // one round (or one host step)
	posted  time.Time     // wall time the client started its POST (host: the episode start)
	alerted bool
	first   time.Duration // simulated time of its first alert
	// detectWall is the wall time from the POST to the end of the poll
	// that first returned the miner's alert.
	detectWall time.Duration
}

// setupTiming is one timed build of a workload's system.
type setupTiming struct {
	newDur, catalog, place time.Duration
}

func (s setupTiming) total() time.Duration { return s.newDur + s.catalog + s.place }

// pass is everything one run of a workload measured. A traced pass also
// fills layer with the per-layer metrics.
type pass struct {
	setups []setupTiming

	runWall   time.Duration
	hostSecs  float64 // simulated host-seconds advanced in the run phase
	guestInst uint64  // real guest ISA instructions retired (block + trace engines)
	rsx       uint64  // simulated RSX retirements, all cores of all machines
	allocs    uint64  // Go heap bytes allocated in the run phase
	heapPeak  uint64  // peak live heap, sampled after a collection at a few barriers
	api       *apiLog

	expects []*expect
	benign  []string // alerts that did not belong to an expected miner
	notes   []string // other gate violations (lost alerts, bad placements)

	digest  hash.Hash // over every delivered alert, in stream order
	nAlerts int

	layer map[string]float64 // per-layer metrics (traced pass only)
}

func newPass() *pass {
	return &pass{api: newAPILog(), digest: sha256.New(), layer: map[string]float64{}}
}

// addAlert folds one delivered alert into the stream digest.
func (p *pass) addAlert(a any) {
	buf, _ := json.Marshal(a) // alerts are plain structs of numbers and strings
	p.digest.Write(buf)
	p.digest.Write([]byte{'\n'})
	p.nAlerts++
}

// sum is the stream digest.
func (p *pass) sum() string { return hex.EncodeToString(p.digest.Sum(nil)) }

// heapSamples is how many barriers of a fleet run sample the live heap.
const heapSamples = 4

// sampleHeap collects garbage and records the live heap. Callers keep it
// out of the timed run phase.
func (p *pass) sampleHeap(h *heapSampler) {
	runtime.GC()
	if _, live := h.read(); live > p.heapPeak {
		p.heapPeak = live
	}
}

// violations lists every correctness-gate failure of the pass: a miner
// that never alerted or alerted after its window plus one round, an alert
// outside the expected miners, and any other recorded problem.
func (p *pass) violations() []string {
	var out []string
	for _, e := range p.expects {
		switch {
		case !e.alerted:
			out = append(out, fmt.Sprintf("miner %d (machine %d, tgids %v) never alerted", e.id, e.machine, e.tgids))
		case e.first > e.placed+e.window+e.slack:
			out = append(out, fmt.Sprintf("miner %d alerted at %v, deadline %v", e.id, e.first, e.placed+e.window+e.slack))
		}
	}
	out = append(out, p.benign...)
	return append(out, p.notes...)
}

// detectSamples returns the wall and simulated detection times of the
// miners that alerted.
func (p *pass) detectSamples() (wall, sim []float64) {
	for _, e := range p.expects {
		if e.alerted {
			wall = append(wall, ms(e.detectWall))
			sim = append(sim, ms(e.first-e.placed))
		}
	}
	return wall, sim
}

// coreTotals sums the engine counters of every core of the given
// machines: guest instructions through the block and trace engines, RSX
// retirements, and the per-engine hit/miss figures the cpu layer metrics
// are built from.
type coreTotals struct {
	bbInst, trInst         uint64
	bbHits, bbMisses       uint64
	trPasses, trSideExits  uint64
	rsx, samples, footprnt uint64
}

func (c coreTotals) guest() uint64 { return c.bbInst + c.trInst }

func totals(ms []*machine.Machine) coreTotals {
	var t coreTotals
	for _, m := range ms {
		c := m.CPU()
		for i := 0; i < c.Cores(); i++ {
			core := c.Core(i)
			bb := core.BlockCacheStats()
			tr := core.TraceCacheStats()
			t.bbInst += bb.LenSum
			t.trInst += tr.LenSum
			t.bbHits += bb.Hits
			t.bbMisses += bb.Misses
			t.trPasses += tr.Hits
			t.trSideExits += tr.SideExits
			t.rsx += core.Counters().RSX()
		}
		t.samples += m.Kernel().Samples()
		t.footprnt += uint64(c.Memory().Footprint())
	}
	return t
}

// fleetMachines lists a fleet's machines in ID order.
func fleetMachines(f *fleet.Fleet) []*machine.Machine {
	ms := make([]*machine.Machine, 0, len(f.Members()))
	for _, mem := range f.Members() {
		ms = append(ms, mem.M)
	}
	return ms
}

// cpuLayer derives the cpu.* per-workload metrics from two totals.
func cpuLayer(layer map[string]float64, a, b coreTotals, hostSecs float64) {
	bbInst := float64(b.bbInst - a.bbInst)
	trInst := float64(b.trInst - a.trInst)
	layer["cpu.trace_inst_frac"] = frac(trInst, bbInst+trInst)
	layer["cpu.bb_hit_frac"] = frac(float64(b.bbHits-a.bbHits), float64(b.bbHits-a.bbHits+b.bbMisses-a.bbMisses))
	passes := float64(b.trPasses - a.trPasses)
	exits := float64(b.trSideExits - a.trSideExits)
	layer["cpu.trace_side_exit_frac"] = frac(exits, passes+exits)
	layer["cpu.guest_insts_per_host_s"] = frac(bbInst+trInst, hostSecs)
	layer["kernel.samples_per_host_s"] = frac(float64(b.samples-a.samples), hostSecs)
	layer["mem.footprint_mb"] = float64(b.footprnt) / 1e6
}
