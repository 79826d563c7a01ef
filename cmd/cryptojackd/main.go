// Command cryptojackd is the end-to-end demo daemon: it boots the simulated
// machine with the cross-stack defense, populates it with benign desktop
// applications, then (optionally) drops a cryptojacking payload — a
// multi-threaded, throttled Monero or Zcash miner — and streams the alerts
// the OS layer raises.
//
// Usage:
//
//	cryptojackd                       # infected run with defaults
//	cryptojackd -coin zcash -threads 2 -throttle 0.3
//	cryptojackd -clean                # benign-only control run
//	cryptojackd -tags rsxo -threshold 2000000000
//	cryptojackd -http :9090           # serve /metrics and /stats while running
//	cryptojackd -metrics-json obs.json
//
// Observability (OBSERVABILITY.md) is on by default; -obs=false disables
// it entirely.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cryptojackd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cryptojackd", flag.ContinueOnError)
	coin := fs.String("coin", "monero", "coin to mine: monero or zcash")
	threads := fs.Int("threads", 4, "miner threads (share one tgid)")
	throttle := fs.Float64("throttle", 0, "miner throttle fraction 0..1")
	clean := fs.Bool("clean", false, "benign-only control run (no miner)")
	dur := fs.Duration("duration", 3*time.Minute, "simulated run time")
	tags := fs.String("tags", "rsx", "decoder tag set: rsx, rsxo, rotate-only")
	threshold := fs.Uint64("threshold", 0, "override RSX/min threshold (0 = paper default)")
	period := fs.Duration("period", time.Minute, "monitoring window")
	parallel := fs.Bool("parallel", true, "execute each quantum on per-core worker goroutines")
	serial := fs.Bool("serial", false, "force serial quantum execution (overrides -parallel)")
	obsOn := fs.Bool("obs", true, "record observability metrics (see OBSERVABILITY.md)")
	httpAddr := fs.String("http", "", "serve /metrics (Prometheus) and /stats on this address, e.g. :9090")
	metricsJSON := fs.String("metrics-json", "", "write a benchjson-schema metrics snapshot here at exit")
	fleetN := fs.Int("fleet", 0, "fleet mode: run this many machines as one sharded detection service (FLEET.md)")
	shards := fs.Int("shards", 0, "fleet mode: worker shards (0 = GOMAXPROCS)")
	round := fs.Duration("round", 0, "fleet mode: simulated time per fleet round (0 = 1s)")
	minerEvery := fs.Int("miner-every", 8, "fleet mode: infect every Nth machine (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*obsOn && (*httpAddr != "" || *metricsJSON != "") {
		return fmt.Errorf("-http and -metrics-json need metrics; drop -obs=false")
	}
	// Bound -period as a procfs write to period_ms is bounded. Without the
	// check a non-positive period would make kernel.New swap in the default
	// tunables wholesale, dropping -threshold with it.
	tun := kernel.DefaultTunables()
	tun.Period = *period
	if err := tun.CheckWindow(); err != nil {
		return fmt.Errorf("-period: %w", err)
	}
	if *fleetN > 0 {
		return runFleet(fleetFlags{
			machines: *fleetN, shards: *shards, round: *round, minerEvery: *minerEvery,
			coin: *coin, threads: *threads, throttle: *throttle, clean: *clean,
			dur: *dur, tags: *tags, threshold: *threshold, period: *period,
			obsOn: *obsOn, httpAddr: *httpAddr, metricsJSON: *metricsJSON,
		})
	}

	opts := machine.DefaultOptions()
	opts.TagSet = *tags
	opts.Kernel.Tunables.Period = *period
	opts.Kernel.Parallel = *parallel && !*serial
	if !*obsOn {
		opts.Kernel.Obs = nil
	}
	sys, err := machine.New(opts)
	if err != nil {
		return err
	}
	if *httpAddr != "" {
		srv, addr, err := serveMetrics(*httpAddr, sys)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (Prometheus), /stats (text)\n", addr)
	}
	if *threshold > 0 {
		if err := sys.ProcFS().Write(kernel.ProcThreshold, strconv.FormatUint(*threshold, 10)); err != nil {
			return err
		}
	}

	fmt.Printf("machine: %s\n", sys.CPU())
	fmt.Printf("scheduler: %s quantum execution\n", modeName(sys.Parallel()))
	fmt.Printf("tunables: threshold %s RSX/min, window %s\n",
		mustRead(sys, kernel.ProcThreshold), *period)

	for _, app := range workload.TableIIApps()[:5] {
		sys.SpawnApp(app)
		fmt.Printf("spawned benign app %-12s (%s)\n", app.Name, app.Category)
	}

	if !*clean {
		c := miner.Monero
		if *coin == "zcash" {
			c = miner.Zcash
		}
		tasks := miner.SpawnMiner(sys.Kernel(), c, *throttle, *threads, 1000)
		fmt.Printf("spawned %s miner: %d threads (tgid %d), throttle %.0f%%\n",
			c, len(tasks), tasks[0].Tgid, *throttle*100)
		p := miner.EstimateProfit(1 - *throttle)
		fmt.Printf("attacker economics: %.3f XMR/h ($%.2f/h) at this utilization\n",
			p.XMRPerHour, p.USDPerHour)
	}

	sys.OnAlert(func(a kernel.Alert) { fmt.Println(a) })
	fmt.Printf("running %s of simulated time...\n", *dur)
	sys.Run(*dur)

	alerts := sys.Alerts()
	fmt.Printf("done: %d alert(s)\n", len(alerts))
	fmt.Println("\nper-process RSX accounting (top 10):")
	fmt.Print(kernel.FormatTop(sys.Kernel().TopRSX(), 10))
	if *metricsJSON != "" {
		buf, err := sys.Obs().BenchJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsJSON, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsJSON)
	}
	if *clean && len(alerts) > 0 {
		return fmt.Errorf("false positives on a clean system")
	}
	if !*clean && len(alerts) == 0 {
		fmt.Println("miner evaded the threshold detector (try -tags rsxo, a lower -threshold, or the ML pipeline in examples/mlpipeline)")
	}
	return nil
}

func modeName(parallel bool) string {
	if parallel {
		return "parallel"
	}
	return "serial"
}

func mustRead(sys *machine.Machine, path string) string {
	v, err := sys.ProcFS().Read(path)
	if err != nil {
		return "?"
	}
	return v
}
