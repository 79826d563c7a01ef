// Command perfbench is the repository's end-to-end benchmark: it drives
// the defense through its public surfaces (fleet submission over the HTTP
// API, round-by-round simulation, the alert stream; or one host through
// Machine.RunUntilAlert and procfs), checks that every miner is caught in
// time and nothing benign is, and prints the end-to-end metrics, or, with
// --trace 1, the per-layer metrics timed from outside the program.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a JSON
// report with the host fingerprint, the alert digest and the figures that
// are deterministic by design. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale shrinks machine counts and run length; 1 is the benchmark, and
	// only the self-test sets another value.
	scale float64
	// spans is the directory traced runs write their spans to.
	spans string
	// corrupt deliberately breaks the gate's expectations (self-test).
	corrupt corruption
}

// corruption is a deliberate error in the gate's expectations, which the
// gate must report.
type corruption int

const (
	corruptNone corruption = iota
	// corruptBenignAsMiner expects a benign workload to alert as a miner:
	// the gate must report a miner that never alerted.
	corruptBenignAsMiner
	// corruptMinerAsBenign treats a real miner as benign: the gate must
	// report its alerts as alerts on a benign workload.
	corruptMinerAsBenign
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads the benchmark runs. BENCHMARK.json
// gates the fleet workloads; host-threads is run by hand (README.md).
var workloadNames = []string{"fleet-mixed", "fleet-quiet", "guest-mining", "host-threads"}

// A fleet workload is set up at least minSetups times per pass, and more,
// up to maxSetups, while the set-ups have taken less than setupBudget in
// all; the median is reported as setup_s.
const (
	minSetups   = 9
	maxSetups   = 101
	setupBudget = 2 * time.Second
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	report, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{scale: 1}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (fleet seed and arrival schedule)")
	fs.IntVar(&o.seconds, "seconds", 20, "wall seconds one pass should measure on the reference host")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory for the spans of a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		return o, fmt.Errorf("bad arguments: seconds=%d trace=%d", o.seconds, trace)
	}
	for _, w := range workloadNames {
		if w == o.workload {
			return o, nil
		}
	}
	return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

// runPass runs one pass of the workload, traced when tr is non-nil.
func runPass(o options, tr *tracer) (*pass, error) {
	var p *pass
	var err error
	switch o.workload {
	case "fleet-mixed":
		p, err = runFleetPlan(planMixed(o.seed, o.seconds, o.scale), o, tr)
	case "fleet-quiet":
		p, err = runFleetPlan(planQuiet(o.seed, o.seconds, o.scale), o, tr)
	case "guest-mining":
		p, err = runFleetPlan(planMining(o.seed, o.seconds, o.scale), o, tr)
	case "host-threads":
		p, err = runHost(planHost(o.seed, o.seconds, o.scale), o.corrupt, tr)
		if err == nil && tr != nil {
			_, err = probeCPU(p.layer)
			p.layer["kernel.restarts_per_host_s"] = 0 // the miner never halts
		}
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		p.layer["setup.fleet_new_ms"] = median(setupPart(p.setups, func(s setupTiming) time.Duration { return s.newDur }))
		p.layer["setup.catalog_ms"] = median(setupPart(p.setups, func(s setupTiming) time.Duration { return s.catalog }))
		p.layer["setup.place_ms"] = median(setupPart(p.setups, func(s setupTiming) time.Duration { return s.place }))
		apiLayer(p.layer, p.api)
	}
	return p, nil
}

// runFleetPlan runs a fleet plan, with the self-test's corruption applied
// to it first.
func runFleetPlan(plan *fleetPlan, o options, tr *tracer) (*pass, error) {
	corruptPlan(plan, o.corrupt)
	p, err := runFleet(plan, tr)
	if err != nil || tr == nil {
		return p, err
	}
	perPass, err := probeCPU(p.layer)
	if err != nil {
		return nil, err
	}
	p.layer["kernel.restarts_per_host_s"] = restarts(plan, perPass, p)
	return p, probeAdvance(plan, p.layer)
}

// corruptPlan applies a self-test corruption to the plan.
// corruptBenignAsMiner makes the first benign arrival (or, when there is
// none, a benign app added at the first barrier) an expected miner.
// corruptMinerAsBenign submits the first miner under a benign tenant.
func corruptPlan(plan *fleetPlan, c corruption) {
	for r, specs := range plan.arrivals {
		for i, s := range specs {
			switch {
			case c == corruptBenignAsMiner && s.Tenant != attacker:
				plan.arrivals[r][i].Tenant = attacker
				plan.arrivals[r][i].Kind = "app"
				return
			case c == corruptMinerAsBenign && s.Tenant == attacker:
				plan.arrivals[r][i].Tenant = "disguised"
				return
			}
		}
	}
	if c != corruptBenignAsMiner {
		return
	}
	plan.arrivals[0] = append(plan.arrivals[0], plan.arrivals[0][0])
	last := len(plan.arrivals[0]) - 1
	plan.arrivals[0][last].Kind, plan.arrivals[0][last].App = "app", "Slack"
	plan.arrivals[0][last].Program, plan.arrivals[0][last].IPS = "", 0
}

// restarts estimates looping-program restarts per host-second: guest
// instructions, split over the catalog programs by their placed
// instruction rates, each divided by the instructions one pass of that
// program retires before it halts. Programs that never halt (the miners)
// contribute nothing.
func restarts(plan *fleetPlan, perPass map[string]float64, p *pass) float64 {
	var total float64
	for _, ips := range plan.ips {
		total += ips
	}
	var n float64
	for prog, ips := range plan.ips {
		if ipp := perPass[prog]; ipp > 0 {
			n += float64(p.guestInst) * ips / total / ipp
		}
	}
	return frac(n, p.hostSecs)
}

func setupPart(ss []setupTiming, f func(setupTiming) time.Duration) []float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, ms(f(s)))
	}
	return xs
}

// apiLayer writes the api.* per-layer metrics.
func apiLayer(layer map[string]float64, a *apiLog) {
	layer["api.post_workloads.ms_p50"] = median(a.lat[routePost])
	layer["api.post_workloads.ms_p99"] = quantile(a.lat[routePost], 0.99)
	layer["api.get_alerts.ms_p50"] = median(a.lat[routeAlerts])
	layer["api.get_alerts.ms_p99"] = quantile(a.lat[routeAlerts], 0.99)
	layer["api.get_machines.ms_p50"] = median(a.lat[routeMachines])
	layer["api.requests"] = float64(a.requests)
	layer["api.resp_kb_per_req"] = frac(float64(a.bytes)/1e3, float64(a.requests))
}

// endToEnd computes the end-to-end metrics of an untraced pass, plus the
// report-only figures that are deterministic by design.
func endToEnd(p *pass) (map[string]metric, map[string]any) {
	wall, sim := p.detectSamples()
	api := p.api.all()
	setups := setupPart(p.setups, setupTiming.total)
	detect90, detectBasis := tail(wall, 0.9)
	api90, apiBasis := tail(api, 0.9)
	api99, api99Basis := tail(api, 0.99)
	secs := p.runWall.Seconds()
	m := map[string]metric{
		"setup_s":             {median(setups) / 1e3, "s"},
		"host_s_per_s":        {frac(p.hostSecs, secs), "host-s/s"},
		"detect_wall_ms_p50":  {median(wall), "ms"},
		"detect_wall_ms_p90":  {detect90, "ms"},
		"api_ms_p50":          {median(api), "ms"},
		"alloc_mb_per_host_s": {frac(float64(p.allocs)/1e6, p.hostSecs), "MB"},
		"heap_peak_mb":        {float64(p.heapPeak) / 1e6, "MB"},
	}
	routes := map[string]any{}
	for route, xs := range p.api.lat {
		routes[route] = map[string]float64{"n": float64(len(xs)), "p50": median(xs), "p90": quantile(xs, 0.9),
			"p99": quantile(xs, 0.99), "max": quantile(xs, 1)}
	}
	extra := map[string]any{
		"api_routes_ms":            routes,
		"sim_detect_ms_p50":        median(sim),
		"guest_mips":               frac(float64(p.guestInst), secs) / 1e6,
		"detect_wall_ms_p90_basis": detectBasis,
		"api_ms_p90":               api90,
		"api_ms_p90_basis":         apiBasis,
		"api_ms_p99":               api99,
		"api_ms_p99_basis":         api99Basis,
		"detections":               len(sim),
		"run_wall_s":               secs,
		"host_seconds":             p.hostSecs,
	}
	return m, extra
}

// run executes the workload. Untraced: one pass, end-to-end metrics.
// Traced: an untraced pass and a traced pass of the same seed, whose
// alert digests and simulated totals must agree; per-layer metrics come
// from the traced pass, and the tracing overhead is the difference of
// their host_s_per_s.
func run(o options) (map[string]any, result, error) {
	report := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": fingerprint(), "fleet_workers": workers(),
	}
	res := result{Metrics: map[string]metric{}}
	p, err := runPass(o, nil)
	if err != nil {
		return nil, res, err
	}
	passes := []*pass{p}
	e2e, extra := endToEnd(p)
	for k, v := range extra {
		report[k] = v
	}
	if !o.trace {
		res.Metrics = e2e
	} else {
		runtime.GC()
		tr := newTracer()
		tp, err := runPass(o, tr)
		if err != nil {
			return nil, res, err
		}
		passes = append(passes, tp)
		for k, v := range tp.layer {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		traced := frac(tp.hostSecs, tp.runWall.Seconds())
		untraced := e2e["host_s_per_s"].Value
		res.Metrics["trace.overhead_host_s_per_s"] = metric{untraced - traced, "host-s/s"}
		res.Metrics["trace.overhead_frac"] = metric{frac(untraced-traced, untraced), "ratio"}
		file := fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)
		if err := tr.write(o.spans, file); err != nil {
			return nil, res, fmt.Errorf("write spans: %w", err)
		}
		report["spans"] = len(tr.spans)
	}

	var problems []string
	for i, q := range passes {
		res.Attempted += q.api.requests + len(q.expects)
		for _, v := range q.violations() {
			problems = append(problems, fmt.Sprintf("pass %d: %s", i, v))
		}
	}
	if len(passes) == 2 {
		res.Attempted++
		a, b := passes[0], passes[1]
		if a.sum() != b.sum() || a.rsx != b.rsx || a.guestInst != b.guestInst || a.nAlerts != b.nAlerts {
			problems = append(problems, fmt.Sprintf("traced pass diverged: digest %s/%s rsx %d/%d guest %d/%d alerts %d/%d",
				a.sum(), b.sum(), a.rsx, b.rsx, a.guestInst, b.guestInst, a.nAlerts, b.nAlerts))
		}
	}
	res.Failed = len(problems)
	res.Correct = len(problems) == 0
	sort.Strings(problems)
	report["alert_digest"] = p.sum()
	report["alerts"] = p.nAlerts
	report["rsx_total"] = p.rsx
	report["guest_insts"] = p.guestInst
	report["failed_frac"] = frac(float64(res.Failed), float64(res.Attempted))
	if len(problems) > 0 {
		report["violations"] = problems[:min(len(problems), 20)]
	}
	return report, res, nil
}

// layerUnit is the unit of a per-layer metric, from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasPrefix(name, "cpu.newcontext_us."), strings.HasSuffix(name, "_us_p50"):
		return "us"
	case strings.HasPrefix(name, "cpu.engine_ns_per_inst."):
		return "ns/inst"
	case strings.HasPrefix(name, "cpu.insts_per_pass."):
		return "inst"
	case strings.HasPrefix(name, "kernel.advance_ms_per_host_s."):
		return "ms/host-s"
	case name == "cpu.guest_insts_per_host_s":
		return "inst/host-s"
	case name == "kernel.samples_per_host_s", name == "kernel.restarts_per_host_s":
		return "1/host-s"
	case name == "api.requests":
		return "count"
	case name == "api.resp_kb_per_req":
		return "KB"
	case name == "mem.footprint_mb":
		return "MB"
	case name == "fleet.steals_per_round":
		return "1/round"
	case strings.HasSuffix(name, "host_s_per_s"):
		return "host-s/s"
	}
	return "ms"
}

// fingerprint records the host a result was taken on.
func fingerprint() map[string]any {
	model := "unknown"
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
