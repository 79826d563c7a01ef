package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/fleet"
	"darkarts/internal/obs"
	"darkarts/internal/workload"
)

// attacker is the tenant every miner is submitted under; benign workloads
// use other tenants, so an alert carrying any other tenant is a false
// positive.
const attacker = "attacker"

// pageLimit is the alert page size the client asks for.
const pageLimit = 1000

// fleetPlan is a fleet workload's whole input, generated from the seed
// before anything runs: the fleet configuration, the benign population
// placed at set-up, and the arrivals the client POSTs at each round
// barrier.
type fleetPlan struct {
	cfg        fleet.Config
	population []fleet.WorkloadSpec
	// arrivals[r] is POSTed at the barrier before round r.
	arrivals [][]fleet.WorkloadSpec
	// machinesEvery is how many rounds apart the client reads
	// /api/v1/machines (0: never).
	machinesEvery int
	classes       []class
	// ips is the total placed instruction rate per catalog program, the
	// weights of the restart estimate.
	ips map[string]float64
}

// rounds is the plan's run length in rounds.
func (p *fleetPlan) rounds() int { return len(p.arrivals) }

// window is a placement's monitoring window: the configured period, or the
// shortened static-prior window for a statically flagged program.
func (p *fleetPlan) window(pl fleet.Placement) time.Duration {
	t := p.cfg.Machine.Kernel.Tunables
	if pl.Static != nil && pl.Static.Flagged() && p.cfg.StaticPolicy != fleet.StaticAdmit && t.StaticPriorDivisor > 1 {
		return t.Period / time.Duration(t.StaticPriorDivisor)
	}
	return t.Period
}

// workers is the fleet's round-worker count: two, or fewer on a host with
// fewer CPUs.
func workers() int { return min(2, runtime.NumCPU()) }

// scaled shrinks a size for the self-test; never below lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(float64(n)*scale))
}

// horizon converts the wall-clock budget into a fixed number of rounds,
// from the workload's measured pace on the reference host. The count
// depends on the arguments only, so a run's simulated work, and with it
// the alert digest, is reproducible.
func horizon(seconds int, roundsPerSec float64, min int) int {
	return max(min, int(float64(seconds)*roundsPerSec))
}

func benignTenant(machine int) string { return "tenant-" + strconv.Itoa(machine%16) }

// Every plan draws the same multiset of workloads for every seed: slot k
// always carries the same apps, program or miner, and the seed decides
// which machine each slot lands on (and, through fleet.Config.Seed, the
// apps' noise). Seeds then vary placement, not the amount of work, so the
// figures of different seeds measure the same thing.

// coin alternates the two rate-model miners.
func coin(i int) string {
	if i%2 == 1 {
		return "zcash"
	}
	return "monero"
}

// planMixed is fleet-mixed: every machine carries three Table II apps and
// one looping catalog hash program at 50k ips; a rate-model miner lands on
// every 8th slot at the first barrier, and three more miners arrive on
// clean slots each round while their deadlines still fit in the run. At
// full size all 112 slots get a miner, more than the 100 samples a real
// detect_wall_ms_p90 needs (tail). Miners never share a machine: a second
// miner beside the first gets too little CPU to cross the threshold. The
// 10 s period makes each detection span 20 rounds, so its wall time
// averages host noise over several seconds.
func planMixed(seed int64, seconds int, scale float64) *fleetPlan {
	n := scaled(112, scale, 8)
	cfg := fleet.DefaultConfig(n)
	cfg.Shards = workers()
	cfg.Round = 500 * time.Millisecond
	cfg.Seed = seed
	cfg.Machine.Kernel.Tunables.Period = 10 * time.Second
	slot := rand.New(rand.NewSource(seed)).Perm(n)
	apps := workload.TableIIApps()
	p := &fleetPlan{cfg: cfg, ips: map[string]float64{}, machinesEvery: 8}
	const progIPS = 50_000
	for k := 0; k < n; k++ {
		m := slot[k]
		for j := 0; j < 3; j++ {
			p.population = append(p.population, fleet.WorkloadSpec{
				Tenant: benignTenant(m), Kind: fleet.KindApp, App: apps[(3*k+j)%len(apps)].Name, Machine: m, Pin: true,
			})
		}
		prog := hashKernels[k%len(hashKernels)]
		p.population = append(p.population, fleet.WorkloadSpec{
			Tenant: benignTenant(m), Kind: fleet.KindProgram, Program: prog, IPS: progIPS, Machine: m, Pin: true,
		})
		p.ips[prog] += progIPS
	}
	window := int(cfg.Machine.Kernel.Tunables.Period / cfg.Round)
	rounds := horizon(seconds, 4.2, window+4)
	p.arrivals = make([][]fleet.WorkloadSpec, rounds)
	miners := 0
	miner := func(k int) fleet.WorkloadSpec {
		miners++
		return fleet.WorkloadSpec{Tenant: attacker, Kind: fleet.KindMiner, Coin: coin(miners), Machine: slot[k], Pin: true}
	}
	var clean []int
	for k := 0; k < n; k++ {
		if k%8 == 0 {
			p.arrivals[0] = append(p.arrivals[0], miner(k))
		} else {
			clean = append(clean, k)
		}
	}
	last := rounds - window - 2
	for r := 1; r < last; r++ {
		for j := 0; j < 3 && len(clean) > 0; j++ {
			p.arrivals[r] = append(p.arrivals[r], miner(clean[0]))
			clean = clean[1:]
		}
	}
	base := []fleet.WorkloadSpec{
		{Tenant: "probe", Kind: fleet.KindApp, App: apps[0].Name},
		{Tenant: "probe", Kind: fleet.KindApp, App: apps[1].Name},
		{Tenant: "probe", Kind: fleet.KindApp, App: apps[2].Name},
		{Tenant: "probe", Kind: fleet.KindProgram, Program: "sha256", IPS: progIPS},
	}
	infected := append(append([]fleet.WorkloadSpec(nil), base...), fleet.WorkloadSpec{Tenant: attacker, Kind: fleet.KindMiner})
	p.classes = []class{{0.75, base}, {0.25, infected}}
	return p
}

// planQuiet is fleet-quiet: thousands of machines, mostly empty, one
// Table II app on every 8th slot, and no ISA programs. At every barrier
// the client POSTs one benign app, and at every 4th also one throttled
// rate-model miner, each onto a slot nothing else was placed on.
func planQuiet(seed int64, seconds int, scale float64) *fleetPlan {
	n := scaled(8192, scale, 64)
	cfg := fleet.DefaultConfig(n)
	cfg.Shards = workers()
	cfg.Round = time.Second
	cfg.Seed = seed
	slot := rand.New(rand.NewSource(seed)).Perm(n)
	apps := workload.TableIIApps()
	p := &fleetPlan{cfg: cfg, ips: map[string]float64{}, machinesEvery: 256}
	var empty []int
	for k := 0; k < n; k++ {
		if k%8 == 0 {
			m := slot[k]
			p.population = append(p.population, fleet.WorkloadSpec{
				Tenant: benignTenant(m), Kind: fleet.KindApp, App: apps[(k/8)%len(apps)].Name, Machine: m, Pin: true,
			})
		} else {
			empty = append(empty, slot[k])
		}
	}
	rounds := horizon(seconds, 65, 70)
	p.arrivals = make([][]fleet.WorkloadSpec, rounds)
	last := rounds - int(cfg.Machine.Kernel.Tunables.Period/cfg.Round) - 2
	throttles := []float64{0, 0.25, 0.5}
	for r := 0; r < rounds && len(empty) > 0; r++ {
		if r%4 == 0 && r < last {
			i := r / 4
			p.arrivals[r] = append(p.arrivals[r], fleet.WorkloadSpec{Tenant: attacker, Kind: fleet.KindMiner, Coin: coin(i),
				Throttle: throttles[i%len(throttles)], Machine: empty[0], Pin: true})
			empty = empty[1:]
		}
		if len(empty) > 0 {
			p.arrivals[r] = append(p.arrivals[r], fleet.WorkloadSpec{Tenant: benignTenant(empty[0]), Kind: fleet.KindApp,
				App: apps[r%len(apps)].Name, Machine: empty[0], Pin: true})
			empty = empty[1:]
		}
	}
	p.classes = []class{
		{0.75, nil}, // empty
		{0.125, []fleet.WorkloadSpec{{Tenant: "probe", Kind: fleet.KindApp, App: apps[0].Name}}},
		{0.125, []fleet.WorkloadSpec{{Tenant: attacker, Kind: fleet.KindMiner, Throttle: 0.25}}},
	}
	return p
}

// planMining is guest-mining: a few machines, each running a catalog ISA
// miner at an instruction rate above the paper's threshold, and no rate
// models. Half the machines get their miner at the first barrier, the
// other half late enough that its deadline still falls inside the run.
// The 16 s period gives a 4 s static window, 16 rounds: a detection's wall
// time then spans about ten wall seconds, which averages out host noise
// that swung the 1 s window's four-round detections by a quarter.
func planMining(seed int64, seconds int, scale float64) *fleetPlan {
	n := scaled(4, scale, 2)
	cfg := fleet.DefaultConfig(n)
	cfg.Shards = workers()
	cfg.Round = 250 * time.Millisecond
	cfg.Seed = seed
	cfg.Machine.Kernel.Tunables.Period = 16 * time.Second
	slot := rand.New(rand.NewSource(seed)).Perm(n)
	p := &fleetPlan{cfg: cfg, ips: map[string]float64{}, machinesEvery: 4}
	const minerIPS = 200_000_000
	window := cfg.Machine.Kernel.Tunables.Period / time.Duration(cfg.Machine.Kernel.Tunables.StaticPriorDivisor)
	rounds := horizon(seconds, 1.3, int(window/cfg.Round)+3)
	p.arrivals = make([][]fleet.WorkloadSpec, rounds)
	second := rounds - int(window/cfg.Round) - 2
	for k := 0; k < n; k++ {
		r := 0
		if k >= n/2 {
			r = second
		}
		prog := minerProgs[k%len(minerProgs)]
		p.arrivals[r] = append(p.arrivals[r], fleet.WorkloadSpec{
			Tenant: attacker, Kind: fleet.KindProgram, Program: prog, IPS: minerIPS, Machine: slot[k], Pin: true,
		})
		p.ips[prog] += minerIPS
	}
	p.classes = []class{{1, []fleet.WorkloadSpec{{Tenant: attacker, Kind: fleet.KindProgram, Program: "xmr-isa", IPS: minerIPS}}}}
	return p
}

// buildFleet is one timed set-up: fleet.New, the first Catalog call (which
// builds every image and runs guest static analysis on it), and the
// initial placement through Submit.
func buildFleet(plan *fleetPlan, tr *tracer) (*fleet.Fleet, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	f, err := fleet.New(plan.cfg)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	f.Catalog()
	t2 := time.Now()
	for _, s := range plan.population {
		if _, err := f.Submit(s); err != nil {
			return nil, st, fmt.Errorf("place %+v: %w", s, err)
		}
	}
	t3 := time.Now()
	st = setupTiming{newDur: t1.Sub(t0), catalog: t2.Sub(t1), place: t3.Sub(t2)}
	root := tr.add("setup", 0, t0, t3, nil)
	tr.add("setup.fleet_new", root, t0, t1, nil)
	tr.add("setup.catalog", root, t1, t2, nil)
	tr.add("setup.place", root, t2, t3, nil)
	return f, st, nil
}

// alertsPage mirrors the GET /api/v1/alerts response.
type alertsPage struct {
	Alerts  []fleet.Alert `json:"alerts"`
	Next    uint64        `json:"next"`
	Trimmed uint64        `json:"trimmed"`
}

// runFleet sets the fleet up minSetups or more times (keeping the last build),
// then drives it as a closed loop: the benchmark owns the fleet and calls
// Fleet.Run one round at a time; at every barrier its one HTTP client
// POSTs the round's arrivals and tails the alert stream. Arrivals land
// while the fleet is quiescent, so the stream is deterministic.
func runFleet(plan *fleetPlan, tr *tracer) (*pass, error) {
	p := newPass()
	var f *fleet.Fleet
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		f = nil
		runtime.GC()
		var st setupTiming
		var err error
		if f, st, err = buildFleet(plan, tr); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, st)
		spent += st.total()
	}
	runtime.GC()

	srv, err := serve(f.Handler())
	if err != nil {
		return nil, err
	}
	defer srv.close()
	c := newClient(srv.addr, p.api)
	defer c.close()

	round := plan.cfg.Round
	machines := fleetMachines(f)
	heap := newHeapSampler()
	byTask := map[[2]int]*expect{}
	inflight := map[int]bool{}
	var cursor uint64
	var ro *roundObs
	if tr != nil {
		ro = newRoundObs(f)
	}

	post := func(r int) {
		for _, spec := range plan.arrivals[r] {
			var pl fleet.Placement
			t0, t1, err := c.do(routePost, "POST", "/api/v1/workloads", spec, &pl)
			if err != nil {
				p.notes = append(p.notes, err.Error())
				continue
			}
			if spec.Tenant != attacker {
				tr.add("api.post_workloads", 0, t0, t1, nil)
				continue
			}
			if pl.Deferred || len(pl.Tgids) == 0 {
				p.notes = append(p.notes, fmt.Sprintf("miner placement at round %d has no thread groups: %+v", r, pl))
				continue
			}
			e := &expect{id: len(p.expects), machine: pl.Machine, tgids: pl.Tgids, placed: f.Now(),
				window: plan.window(pl), slack: round, posted: t0}
			p.expects = append(p.expects, e)
			for _, tg := range pl.Tgids {
				byTask[[2]int{pl.Machine, tg}] = e
			}
			inflight[e.id] = true
			tr.add("api.post_workloads", 0, t0, t1, []int{e.id})
		}
	}
	poll := func() {
		for {
			var page alertsPage
			t0, t1, err := c.do(routeAlerts, "GET", "/api/v1/alerts?since="+strconv.FormatUint(cursor, 10)+"&limit="+strconv.Itoa(pageLimit), nil, &page)
			if err != nil {
				p.notes = append(p.notes, err.Error())
				return
			}
			if page.Trimmed > 0 {
				p.notes = append(p.notes, fmt.Sprintf("%d alerts trimmed before the client read them", page.Trimmed))
			}
			var delivered []int
			for _, a := range page.Alerts {
				p.addAlert(a)
				e := byTask[[2]int{a.Machine, a.Tgid}]
				if e == nil || a.Tenant != attacker {
					p.benign = append(p.benign, fmt.Sprintf("alert on benign workload: machine %d tgid %d tenant %q", a.Machine, a.Tgid, a.Tenant))
					continue
				}
				if !e.alerted {
					e.alerted, e.first, e.detectWall = true, a.Time, t1.Sub(e.posted)
					delivered = append(delivered, e.id)
					delete(inflight, e.id)
				}
			}
			tr.add("api.get_alerts", 0, t0, t1, delivered)
			cursor = page.Next
			if len(page.Alerts) < pageLimit {
				return
			}
		}
	}

	before := totals(machines)
	alloc0, _ := heap.read()
	start := time.Now()
	var paused time.Duration
	every := max(1, plan.rounds()/heapSamples)
	post(0)
	for r := 0; r < plan.rounds(); r++ {
		t0 := time.Now()
		f.Run(round)
		t1 := time.Now()
		if ro != nil {
			ro.observe(t1.Sub(t0))
			tr.add("fleet.round", 0, t0, t1, sortedKeys(inflight))
		}
		if (r+1)%every == 0 {
			h0 := time.Now()
			p.sampleHeap(heap)
			paused += time.Since(h0)
		}
		poll()
		if plan.machinesEvery > 0 && (r+1)%plan.machinesEvery == 0 {
			t0, t1, err := c.do(routeMachines, "GET", "/api/v1/machines", nil, nil)
			if err != nil {
				p.notes = append(p.notes, err.Error())
			}
			tr.add("api.get_machines", 0, t0, t1, nil)
		}
		if r+1 < plan.rounds() {
			post(r + 1)
		}
	}
	p.runWall = time.Since(start) - paused
	alloc1, _ := heap.read()
	after := totals(machines)

	p.allocs = alloc1 - alloc0
	p.hostSecs = float64(len(machines)) * float64(plan.rounds()) * round.Seconds()
	p.guestInst = after.guest() - before.guest()
	p.rsx = after.rsx
	if tr != nil {
		cpuLayer(p.layer, before, after, p.hostSecs)
		ro.fold(p.layer, len(machines))
	}
	return p, nil
}

func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// roundObs takes per-round deltas of the fleet registry's worker counters
// and of the shared block cache around each Fleet.Run call.
type roundObs struct {
	f      *fleet.Fleet
	labels []string
	busy   []float64 // last cumulative busy ns, per worker

	steals, ff float64
	shared     cpu.SharedBlocksStats

	roundMs                []float64
	barrierMs, busyMs      float64
	stealSum, ffSum        float64
	sharedHits, sharedMiss uint64
}

func newRoundObs(f *fleet.Fleet) *roundObs {
	o := &roundObs{f: f}
	for i := 0; i < f.Config().Shards; i++ {
		o.labels = append(o.labels, obs.Label("worker", strconv.Itoa(i)))
	}
	o.busy = make([]float64, len(o.labels))
	o.read() // baseline
	o.roundMs, o.barrierMs, o.busyMs, o.stealSum, o.ffSum, o.sharedHits, o.sharedMiss = nil, 0, 0, 0, 0, 0, 0
	return o
}

// read takes the counters' deltas since the previous read and returns the
// busiest worker's and the summed busy time, in ms.
func (o *roundObs) read() (maxBusy, sumBusy float64) {
	reg := o.f.Obs()
	for i, l := range o.labels {
		v, _ := reg.Value("fleet_worker_busy_ns_total", l)
		d := (v - o.busy[i]) / 1e6
		o.busy[i] = v
		maxBusy = max(maxBusy, d)
		sumBusy += d
	}
	steals, _ := reg.Value("fleet_steals_total", "")
	ff, _ := reg.Value("fleet_fastforward_rounds_total", "")
	o.stealSum += steals - o.steals
	o.ffSum += ff - o.ff
	o.steals, o.ff = steals, ff
	s := o.f.SharedBlocks().Stats()
	o.sharedHits += s.Hits - o.shared.Hits
	o.sharedMiss += s.Misses - o.shared.Misses
	o.shared = s
	return maxBusy, sumBusy
}

// observe folds one Fleet.Run(Round) call of the given wall time.
func (o *roundObs) observe(wall time.Duration) {
	maxBusy, sumBusy := o.read()
	o.roundMs = append(o.roundMs, ms(wall))
	o.barrierMs += max(0, ms(wall)-maxBusy)
	o.busyMs += sumBusy
}

// fold writes the fleet.* per-layer metrics.
func (o *roundObs) fold(layer map[string]float64, machines int) {
	n := float64(len(o.roundMs))
	var wall float64
	for _, x := range o.roundMs {
		wall += x
	}
	layer["fleet.round_ms_p50"] = median(o.roundMs)
	layer["fleet.round_ms_p90"] = quantile(o.roundMs, 0.9)
	layer["fleet.barrier_ms_per_round"] = frac(o.barrierMs, n)
	layer["fleet.worker_busy_frac"] = frac(o.busyMs, wall*float64(len(o.labels)))
	layer["fleet.steals_per_round"] = frac(o.stealSum, n)
	layer["fleet.ff_frac"] = frac(o.ffSum, n*float64(machines))
	layer["fleet.shared_bb_hit_frac"] = frac(float64(o.sharedHits), float64(o.sharedHits+o.sharedMiss))
}
