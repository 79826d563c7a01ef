// Command fleetload is the fleet-scale load generator: it boots an
// internal/fleet service, floods it with tenant workload submissions
// (benign rate-model apps, catalog ISA programs, and miners on a
// configurable fraction of machines), runs a span of simulated time, and
// reports the service-level numbers that matter at scale — sustained
// hosts per second, aggregate alert latency, per-worker busy fractions,
// and the scheduler's steal and fast-forward totals — in the benchjson
// schema so runs can be committed and diffed like benchmarks.
//
// Usage:
//
//	fleetload                                  # 1000 machines, auto shards
//	fleetload -machines 256 -duration 5s       # CI smoke size
//	fleetload -shards 4 -procs 6 -miner-every 4
//	fleetload -json fleetload.json             # benchjson records to a file
//
// The simulated process population is machines x (procs + miner threads
// on infected machines); -machines 250000 -procs 4 drives a million
// processes through one fleet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"darkarts/internal/fleet"
	"darkarts/internal/workload"
)

// result mirrors cmd/benchjson's Result schema so fleetload output can be
// merged into BENCH_baseline.json.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fleetload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fleetload", flag.ContinueOnError)
	machines := fs.Int("machines", 1000, "simulated hosts in the fleet")
	shards := fs.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
	round := fs.Duration("round", 500*time.Millisecond, "simulated time per fleet round")
	dur := fs.Duration("duration", 10*time.Second, "simulated run time")
	procs := fs.Int("procs", 4, "benign processes per machine (apps + catalog programs)")
	minerEvery := fs.Int("miner-every", 8, "infect every Nth machine with a miner (0 = none)")
	throttle := fs.Float64("throttle", 0, "miner throttle fraction 0..1")
	ips := fs.Uint64("ips", 50_000, "instruction rate of each catalog ISA program")
	period := fs.Duration("period", 10*time.Second, "per-machine monitoring window (threshold scales with it)")
	seed := fs.Int64("seed", 1, "fleet workload seed")
	jsonOut := fs.String("json", "", "write benchjson-schema records here (default: print to stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := fleet.DefaultConfig(*machines)
	cfg.Shards = *shards
	cfg.Round = *round
	cfg.Seed = *seed
	cfg.Machine.Kernel.Tunables.Period = *period
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	eff := f.Config()
	fmt.Printf("fleet: %d machines, %d shards, %s rounds\n", eff.Machines, eff.Shards, eff.Round)

	// Submission schedule: deterministic in (machines, procs, miner-every,
	// seed). Apps dominate; every 4th benign slot is a catalog ISA program
	// so the fast engine's block caches see real decode traffic.
	apps := workload.TableIIApps()
	catalog := f.Catalog()
	tasks := 0
	for i := 0; i < *machines; i++ {
		for p := 0; p < *procs; p++ {
			spec := fleet.WorkloadSpec{Tenant: tenantFor(i), Machine: i, Pin: true}
			if p%4 == 3 {
				spec.Kind = fleet.KindProgram
				spec.Program = catalog[(i+p)%len(catalog)]
				spec.IPS = *ips
			} else {
				spec.Kind = fleet.KindApp
				spec.App = apps[(i*7+p)%len(apps)].Name
			}
			pl, err := f.Submit(spec)
			if err != nil {
				return err
			}
			tasks += len(pl.Tgids)
		}
		if *minerEvery > 0 && i%*minerEvery == 0 {
			pl, err := f.Submit(fleet.WorkloadSpec{
				Tenant: "attacker", Kind: fleet.KindMiner,
				Throttle: *throttle, Machine: i, Pin: true,
			})
			if err != nil {
				return err
			}
			tasks += len(pl.Tgids)
		}
	}
	fmt.Printf("placed %d processes across %d tenants\n", tasks, len(tenantSet(*machines))+1)

	t0 := time.Now()
	f.Run(*dur)
	wall := time.Since(t0)

	recs := report(f, wall, tasks)
	buf, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("benchjson records written to %s\n", *jsonOut)
	} else {
		os.Stdout.Write(buf)
	}
	return nil
}

// tenantFor maps machines onto a small stable tenant population.
func tenantFor(machine int) string {
	return fmt.Sprintf("tenant-%d", machine%16)
}

// tenantSet returns the distinct benign tenants for n machines.
func tenantSet(n int) map[string]bool {
	s := map[string]bool{}
	for i := 0; i < n; i++ {
		s[tenantFor(i)] = true
	}
	return s
}

// report distills the fleet registry into the load summary: hosts/sec,
// aggregate alert latency, per-worker busy fractions (workers, not home
// batches: a worker's busy time includes the machines it stole, so these
// fractions describe where host CPU actually went), and steal /
// fast-forward totals.
func report(f *fleet.Fleet, wall time.Duration, tasks int) []result {
	eff := f.Config()
	simSec := f.Now().Seconds()
	wallSec := wall.Seconds()
	m := map[string]float64{
		"machines":         float64(eff.Machines),
		"shards":           float64(eff.Shards),
		"processes":        float64(tasks),
		"sim_seconds":      simSec,
		"wall_seconds":     wallSec,
		"hosts_per_second": float64(eff.Machines) * simSec / wallSec,
	}
	var alerts float64
	snapshot := f.Obs().Snapshot()
	busy := map[string]float64{}
	idle := map[string]float64{}
	for _, mt := range snapshot {
		switch mt.Name {
		case "fleet_alerts_total":
			alerts = float64(mt.Value)
			m["alerts_total"] = alerts
		case "fleet_alert_latency_ms":
			if mt.Value > 0 {
				m["alert_latency_ms_avg"] = float64(mt.Sum) / float64(mt.Value)
			}
		case "fleet_steals_total":
			m["steal_total"] = float64(mt.Value)
		case "fleet_fastforward_rounds_total":
			m["fastforward_rounds_total"] = float64(mt.Value)
		case "fleet_worker_busy_ns_total":
			busy[mt.Label] = float64(mt.Value)
		case "fleet_worker_idle_ns_total":
			idle[mt.Label] = float64(mt.Value)
		}
	}
	minFrac, maxFrac, sumFrac := 1.0, 0.0, 0.0
	for label, b := range busy {
		frac := 0.0
		if tot := b + idle[label]; tot > 0 {
			frac = b / tot
		}
		m["busy_frac_"+workerSuffix(label)] = frac
		if frac < minFrac {
			minFrac = frac
		}
		if frac > maxFrac {
			maxFrac = frac
		}
		sumFrac += frac
	}
	if len(busy) > 0 {
		m["worker_busy_frac_min"] = minFrac
		m["worker_busy_frac_max"] = maxFrac
		m["worker_busy_frac_avg"] = sumFrac / float64(len(busy))
	}
	fmt.Printf("ran %.0fs simulated in %.2fs wall: %.0f host-seconds/second, %0.f alerts",
		simSec, wallSec, m["hosts_per_second"], alerts)
	if v, ok := m["alert_latency_ms_avg"]; ok {
		fmt.Printf(", %.0fms avg alert latency", v)
	}
	fmt.Println()
	return []result{{
		Name:       "FleetLoad",
		Iterations: int64(f.Rounds()),
		NsPerOp:    float64(wall.Nanoseconds()) / float64(f.Rounds()),
		Metrics:    m,
	}}
}

// workerSuffix turns the metric label `worker="3"` into "worker3".
func workerSuffix(label string) string {
	v := strings.TrimSuffix(strings.TrimPrefix(label, `worker="`), `"`)
	return "worker" + v
}
