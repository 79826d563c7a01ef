package main

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/workload"
)

// hostPlan is the host-threads workload's input: one default host
// (intra-machine parallel quanta on, private metrics registry) running a
// 4-thread ISA miner beside Table II apps, rebuilt for each episode.
type hostPlan struct {
	opts    machine.Options
	ips     uint64 // per miner thread
	threads int
	apps    [][]workload.AppProfile // per episode
	// step is the simulated time between polls; tail is how long the host
	// keeps running after the alert; window is the miner's monitoring
	// window (the static-prior window: the miner is statically flagged).
	step, tail, window time.Duration
	statsEvery         int // steps between reads of the stats file
}

func (h *hostPlan) episodes() int { return len(h.apps) }

// planHost is host-threads. The short period keeps an episode to about a
// second of wall time. The miner's per-thread rate keeps its aggregate RSX
// rate above the threshold even when the apps hold 3 of every 7 core
// slices; at half that rate, busy apps pushed it below the threshold.
func planHost(seed int64, seconds int, scale float64) *hostPlan {
	opts := machine.DefaultOptions()
	opts.Kernel.Tunables.Period = 2 * time.Second
	t := opts.Kernel.Tunables
	h := &hostPlan{
		opts:       opts,
		ips:        100_000_000,
		threads:    4,
		step:       100 * time.Millisecond,
		tail:       time.Duration(float64(500*time.Millisecond) * min(1, scale)),
		window:     t.Period / time.Duration(t.StaticPriorDivisor),
		statsEvery: 5,
	}
	rng := rand.New(rand.NewSource(seed))
	all := workload.TableIIApps()
	for e := 0; e < horizon(seconds, 0.65, 1); e++ {
		var apps []workload.AppProfile
		for j := 0; j < 3; j++ {
			a := all[(3*e+j)%len(all)]
			a.Seed = rng.Int63()
			apps = append(apps, a)
		}
		h.apps = append(h.apps, apps)
	}
	return h
}

// buildHost is one timed set-up: machine.New, the miner image built and
// analyzed by SpawnAnalyzedProgram, then the miner's other threads
// (Kernel.CloneThread of kernel.NewISAWorkload) and the apps.
func buildHost(plan *hostPlan, episode int, tr *tracer) (*machine.Machine, *kernel.Task, *kernel.Task, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	m, err := machine.New(plan.opts)
	if err != nil {
		return nil, nil, nil, st, err
	}
	t1 := time.Now()
	prog := workload.XMRMinerProgram()
	task, _, err := m.SpawnAnalyzedProgram("xmr-isa", prog, plan.ips, true)
	if err != nil {
		return nil, nil, nil, st, err
	}
	t2 := time.Now()
	base := uint64(0x4000_0000)
	for i := 1; i < plan.threads; i++ {
		w, err := kernel.NewISAWorkload(prog, m.CPU().Memory(), base, plan.ips)
		if err != nil {
			return nil, nil, nil, st, err
		}
		w.Loop = true
		m.Kernel().CloneThread(task, w)
		base += cpu.RegionSize(prog) + 1<<20
	}
	var app *kernel.Task
	for _, a := range plan.apps[episode] {
		if t := m.SpawnApp(a); app == nil {
			app = t
		}
	}
	t3 := time.Now()
	st = setupTiming{newDur: t1.Sub(t0), catalog: t2.Sub(t1), place: t3.Sub(t2)}
	root := tr.add("setup", 0, t0, t3, nil)
	tr.add("setup.machine_new", root, t0, t1, nil)
	tr.add("setup.catalog", root, t1, t2, nil)
	tr.add("setup.place", root, t2, t3, nil)
	return m, task, app, st, nil
}

// runHost drives each episode's host through Machine.RunUntilAlert in
// steps until the miner's alert, then Machine.Run for the tail. After
// every step the benchmark polls the host's own query surface: the alert
// list and the miner's procfs RSX count (the get_alerts route), and every
// few steps the procfs stats file (the get_machines route). A traced pass
// runs the tail one quantum per Run call and times each.
//
// A self-test corruption either also expects the first app to alert as a
// miner, or treats the miner as benign; the gate must report either.
func runHost(plan *hostPlan, corrupt corruption, tr *tracer) (*pass, error) {
	p := newPass()
	heap := newHeapSampler()
	var after coreTotals
	var quanta []float64
	var tailDur, tailSim, ffDur, ffSim time.Duration
	for e := 0; e < plan.episodes(); e++ {
		m, miner, app, st, err := buildHost(plan, e, tr)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, st)
		rsxPath := "proc/" + strconv.Itoa(miner.Pid) + "/rsx_count"
		ex := &expect{id: e, machine: e, tgids: []int{miner.Tgid}, placed: m.Now(), window: plan.window, slack: plan.step}
		if corrupt != corruptMinerAsBenign {
			p.expects = append(p.expects, ex)
		}
		if corrupt == corruptBenignAsMiner {
			p.expects = append(p.expects, &expect{id: -1, machine: e, tgids: []int{app.Tgid}, placed: m.Now(), window: plan.window, slack: plan.step})
		}
		seen, steps := 0, 0
		poll := func() {
			t0 := time.Now()
			alerts := m.Alerts()
			v, err := m.ProcFS().Read(rsxPath)
			t1 := time.Now()
			n := len(v)
			var delivered []int
			for _, a := range alerts[seen:] {
				buf, _ := json.Marshal(a) // plain struct
				n += len(buf)
				p.addAlert(a)
				if a.Tgid != miner.Tgid || corrupt == corruptMinerAsBenign {
					p.benign = append(p.benign, "alert on benign workload: task "+a.Name+" tgid "+strconv.Itoa(a.Tgid))
					continue
				}
				if !ex.alerted {
					ex.alerted, ex.first, ex.detectWall = true, a.Time, t1.Sub(ex.posted)
					delivered = append(delivered, ex.id)
				}
			}
			seen = len(alerts)
			p.api.record(routeAlerts, t1.Sub(t0), n)
			if err != nil {
				p.notes = append(p.notes, err.Error())
			}
			tr.add("api.get_alerts", 0, t0, t1, delivered)
			if steps++; steps%plan.statsEvery == 0 {
				t0 := time.Now()
				s, err := m.ProcFS().Read(kernel.ProcStats)
				t1 := time.Now()
				p.api.record(routeMachines, t1.Sub(t0), len(s))
				if err != nil {
					p.notes = append(p.notes, err.Error())
				}
				tr.add("api.get_machines", 0, t0, t1, nil)
			}
		}

		alloc0, _ := heap.read()
		start := time.Now()
		ex.posted = start
		deadline := ex.placed + plan.window + 2*plan.step
		for !ex.alerted && m.Now() < deadline {
			t0 := time.Now()
			m.RunUntilAlert(plan.step)
			tr.add("kernel.run_until_alert", 0, t0, time.Now(), []int{ex.id})
			poll()
		}
		slice := plan.opts.Kernel.TimeSlice
		for end := m.Now() + plan.tail; m.Now() < end; {
			t0 := time.Now()
			if tr == nil {
				m.Run(plan.step)
			} else {
				for stop := m.Now() + plan.step; m.Now() < stop; {
					q0 := time.Now()
					m.Run(slice)
					quanta = append(quanta, float64(time.Since(q0))/float64(time.Microsecond))
				}
				tailSim += plan.step
			}
			t1 := time.Now()
			tailDur += t1.Sub(t0)
			tr.add("kernel.run", 0, t0, t1, nil)
			poll()
		}
		p.runWall += time.Since(start)
		alloc1, _ := heap.read()
		p.allocs += alloc1 - alloc0
		p.sampleHeap(heap)
		p.hostSecs += (m.Now() - ex.placed).Seconds()
		t := totals([]*machine.Machine{m})
		after.bbInst += t.bbInst
		after.trInst += t.trInst
		after.bbHits += t.bbHits
		after.bbMisses += t.bbMisses
		after.trPasses += t.trPasses
		after.trSideExits += t.trSideExits
		after.rsx += t.rsx
		after.samples += t.samples
		after.footprnt = max(after.footprnt, t.footprnt) // one host's footprint, not the episodes' sum
		if tr != nil {
			t0 := time.Now()
			if m.FastForward(plan.step) {
				ffDur += time.Since(t0)
				ffSim += plan.step
			}
		}
	}
	p.guestInst = after.guest()
	p.rsx = after.rsx
	if tr != nil {
		cpuLayer(p.layer, coreTotals{}, after, p.hostSecs)
		// One host and no fleet: the fleet round-loop metrics do not apply.
		(&roundObs{}).fold(p.layer, 1)
		p.layer["kernel.quantum_us_p50"] = median(quanta)
		p.layer["kernel.advance_ms_per_host_s.run"] = frac(ms(tailDur), tailSim.Seconds())
		p.layer["kernel.advance_ms_per_host_s.ff"] = frac(ms(ffDur), ffSim.Seconds())
	}
	return p, nil
}
