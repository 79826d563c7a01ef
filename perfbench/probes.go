package main

import (
	"time"

	"darkarts/internal/cpu"
	"darkarts/internal/cryptoalg"
	"darkarts/internal/fleet"
	"darkarts/internal/gsa"
	"darkarts/internal/isa"
	"darkarts/internal/machine"
	"darkarts/internal/mem"
	"darkarts/internal/workload"
)

// hashKernels are the fleet catalog's benign hash programs; minerProgs are
// its ISA miners.
var (
	hashKernels = []string{"sha256", "keccak", "aes", "blake2b"}
	minerProgs  = []string{"xmr-isa", "zec-isa"}
)

// catalogProgram builds the named catalog image as the fleet catalog does
// (fleet.ensureCatalog, which this list must track): the same builder and
// arguments, then gsa.Annotate, whose hot-loop hints seed trace formation.
// Isolation probes so time the programs the fleet runs.
func catalogProgram(name string) *isa.Program {
	var p *isa.Program
	switch name {
	case "sha256":
		p, _ = cryptoalg.BuildSHA256Program(4)
	case "keccak":
		p, _ = cryptoalg.BuildKeccakHashProgram(4)
	case "aes":
		p, _ = cryptoalg.BuildAESProgram(make([]byte, 16), 4)
	case "blake2b":
		p, _ = cryptoalg.BuildBlake2bProgram(32, 4)
	case "xmr-isa":
		p = workload.XMRMinerProgram()
	case "zec-isa":
		p = workload.ZecMinerProgram()
	default:
		return nil
	}
	gsa.Annotate(p)
	return p
}

// probeCore returns core 0 of a fresh single machine with the default
// hardware and tag table.
func probeCore() (*cpu.Core, *mem.Memory, error) {
	opts := machine.DefaultOptions()
	opts.Kernel.Obs = nil
	opts.Kernel.Parallel = false
	m, err := machine.New(opts)
	if err != nil {
		return nil, nil, err
	}
	return m.CPU().Core(0), m.CPU().Memory(), nil
}

const probeBase = 0x1000_0000

// probeCPU times the cpu layer in isolation: context construction for the
// hash kernels (what a looping ISA workload pays on every restart), how
// many instructions one pass of each hash kernel retires before it halts,
// and engine cost per instruction on the two ISA miners.
func probeCPU(layer map[string]float64) (map[string]float64, error) {
	perPass := map[string]float64{}
	for _, name := range hashKernels {
		prog := catalogProgram(name)
		m := mem.NewMemory()
		var us []float64
		for i := 0; i < 400; i++ {
			t0 := time.Now()
			if _, err := cpu.NewContext(prog, m, probeBase); err != nil {
				return nil, err
			}
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
		layer["cpu.newcontext_us."+name] = median(us)

		core, cm, err := probeCore()
		if err != nil {
			return nil, err
		}
		ctx, err := cpu.NewContext(prog, cm, probeBase)
		if err != nil {
			return nil, err
		}
		core.LoadContext(ctx)
		var n uint64
		for !ctx.Halted && n < 1<<26 {
			n += core.Run(1 << 20)
		}
		layer["cpu.insts_per_pass."+name] = float64(n)
		perPass[name] = float64(n)
	}
	for _, name := range minerProgs {
		prog := catalogProgram(name)
		core, cm, err := probeCore()
		if err != nil {
			return nil, err
		}
		ctx, err := cpu.NewContext(prog, cm, probeBase)
		if err != nil {
			return nil, err
		}
		core.LoadContext(ctx)
		core.Run(2_000_000) // warm the block and trace caches
		const chunk = 2_000_000
		var ns []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			ran := core.Run(chunk)
			if ran == 0 {
				break
			}
			ns = append(ns, float64(time.Since(t0))/float64(ran))
		}
		layer["cpu.engine_ns_per_inst."+name] = median(ns)
	}
	return perPass, nil
}

// class is one machine population class of a fleet workload: the
// workloads a machine of the class carries, and the share of the fleet's
// machines in it.
type class struct {
	weight float64
	specs  []fleet.WorkloadSpec
}

// probeAdvance times Machine.Run and Machine.FastForward on a one-machine
// fleet of each population class, and one-quantum Machine.Run calls, and
// folds them into per-host-second costs weighted by class share. A class
// whose machine refuses fast-forward contributes nothing to the ff figure.
func probeAdvance(plan *fleetPlan, layer map[string]float64) error {
	round := plan.cfg.Round
	slice := plan.cfg.Machine.Kernel.TimeSlice
	if slice <= 0 {
		slice = 4 * time.Millisecond
	}
	var runMs, ffMs, ffWeight, quantumUs float64
	for _, cl := range plan.classes {
		cfg := plan.cfg
		cfg.Machines, cfg.Shards, cfg.Obs = 1, 1, nil
		f, err := fleet.New(cfg)
		if err != nil {
			return err
		}
		for _, s := range cl.specs {
			s.Machine, s.Pin = 0, true
			if _, err := f.Submit(s); err != nil {
				return err
			}
		}
		m := f.Members()[0].M
		m.Run(round) // warm caches and windows

		var qs []float64
		for i := 0; i < 100; i++ {
			t0 := time.Now()
			m.Run(slice)
			qs = append(qs, float64(time.Since(t0))/float64(time.Microsecond))
		}
		quantumUs += cl.weight * median(qs)

		const n = 4
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.Run(round)
		}
		runMs += cl.weight * ms(time.Since(t0)) / (n * round.Seconds())

		var ffDur time.Duration
		var ffSim time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			ok := m.FastForward(round)
			d := time.Since(t0)
			if !ok {
				m.Run(round)
				continue
			}
			ffDur += d
			ffSim += round
		}
		if ffSim > 0 {
			ffMs += cl.weight * ms(ffDur) / ffSim.Seconds()
			ffWeight += cl.weight
		}
	}
	layer["kernel.advance_ms_per_host_s.run"] = runMs
	layer["kernel.advance_ms_per_host_s.ff"] = frac(ffMs, ffWeight)
	layer["kernel.quantum_us_p50"] = quantumUs
	return nil
}
