package kernel

import (
	"strconv"
	"testing"
	"time"

	"darkarts/internal/cpu"
)

func testMachine(t *testing.T) *cpu.CPU {
	t.Helper()
	cfg := cpu.DefaultConfig()
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rsxRateWorkload injects a constant RSX rate (instructions per minute of
// simulated time) into whichever core it runs on.
type rsxRateWorkload struct {
	perMin float64
}

func (w *rsxRateWorkload) RunSlice(core *cpu.Core, d time.Duration) {
	n := uint64(w.perMin * d.Minutes())
	core.Counters().AddRSX(n)
	core.Counters().AddRetired(n * 10)
}

func (w *rsxRateWorkload) Done() bool { return false }

// burstWorkload emits a single large RSX burst on its first slice, then
// goes quiet.
type burstWorkload struct {
	burst uint64
	fired bool
}

func (w *burstWorkload) RunSlice(core *cpu.Core, d time.Duration) {
	if !w.fired {
		core.Counters().AddRSX(w.burst)
		w.fired = true
	}
}

func (w *burstWorkload) Done() bool { return false }

func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Tunables.Period = time.Second // short windows keep tests fast
	return New(testMachine(t), cfg)
}

func TestDoForkTgidSharing(t *testing.T) {
	parent := doFork(100, cloneArgs{name: "p", uid: 1000})
	child := doFork(101, cloneArgs{parent: parent, sameTgid: true, name: "p", uid: 1000})
	other := doFork(102, cloneArgs{name: "q", uid: 1000})

	if child.rsxPtr != parent.rsxPtr {
		t.Error("same-tgid clone did not share rsx_ptr (Listing 2 violated)")
	}
	if child.Tgid != parent.Tgid {
		t.Error("clone has different tgid")
	}
	if other.rsxPtr == parent.rsxPtr {
		t.Error("separate process shares rsx_ptr")
	}
	if got := parent.rsxPtr.ThreadCount(); got != 2 {
		t.Errorf("tcount = %d, want 2", got)
	}
	child.exit()
	if got := parent.rsxPtr.ThreadCount(); got != 1 {
		t.Errorf("tcount after exit = %d, want 1", got)
	}
	child.exit() // double exit must not double-decrement
	if got := parent.rsxPtr.ThreadCount(); got != 1 {
		t.Errorf("tcount after double exit = %d", got)
	}
}

func TestMinerAboveThresholdAlerts(t *testing.T) {
	k := newTestKernel(t)
	// Monero's measured rate: 5.7B RSX/min, well above the 2.5B threshold.
	k.Spawn("monero", 1000, &rsxRateWorkload{perMin: 5.7e9})
	if !k.RunUntilAlert(10 * time.Second) {
		t.Fatal("no alert for above-threshold miner")
	}
	a := k.Alerts()[0]
	if a.Name != "monero" {
		t.Errorf("alert names %q", a.Name)
	}
	if a.RatePerMin < 2.5e9 {
		t.Errorf("alert rate %.2e below threshold", a.RatePerMin)
	}
}

func TestBenignBelowThresholdSilent(t *testing.T) {
	k := newTestKernel(t)
	// Ramme, the highest benign app: 5.2B RSX/hour = 0.087B/min.
	k.Spawn("ramme", 1000, &rsxRateWorkload{perMin: 5.2e9 / 60})
	k.Run(30 * time.Second)
	if n := len(k.Alerts()); n != 0 {
		t.Errorf("benign workload raised %d alerts", n)
	}
}

func TestShortBurstSuppressedByWindow(t *testing.T) {
	k := newTestKernel(t)
	// A burst worth 10x the per-window threshold... spread over one slice
	// only. The window mechanism must NOT alert: the stream is not
	// sustained... wait — the window counts total RSX in the period, so a
	// single huge burst WOULD trip it. The paper's protection is against
	// short-lived peaks *below* the period-scaled threshold. Verify that a
	// burst under the window threshold never alerts even though its
	// instantaneous rate (per-slice) is enormous.
	perWindow := k.Tunables().thresholdForPeriod() // 1s window
	k.Spawn("bursty", 1000, &burstWorkload{burst: perWindow / 2})
	k.Run(5 * time.Second)
	if n := len(k.Alerts()); n != 0 {
		t.Errorf("sub-threshold burst raised %d alerts", n)
	}
}

func TestRootProcessesNotMonitored(t *testing.T) {
	k := newTestKernel(t)
	task := k.Spawn("rootminer", 0, &rsxRateWorkload{perMin: 50e9})
	k.Run(5 * time.Second)
	if n := len(k.Alerts()); n != 0 {
		t.Errorf("root process raised %d alerts", n)
	}
	if task.RSX().RSXCount() != 0 {
		t.Error("root process accumulated RSX despite uid filter")
	}

	// Flipping monitor_root through procfs enables monitoring.
	if err := k.ProcFS().Write(ProcMonitorRoot, "1"); err != nil {
		t.Fatal(err)
	}
	if !k.RunUntilAlert(5 * time.Second) {
		t.Error("no alert after enabling root monitoring")
	}
}

func TestMultithreadedMinerAggregatedViaTgid(t *testing.T) {
	k := newTestKernel(t)
	// A 4-thread miner splitting 5.7B/min evenly: each thread alone is
	// under the 2.5B threshold, the aggregate is not.
	perThread := 5.7e9 / 4
	if perThread >= 2.5e9 {
		t.Fatal("test premise broken")
	}
	main := k.Spawn("monero-mt", 1000, &rsxRateWorkload{perMin: perThread})
	for i := 0; i < 3; i++ {
		k.CloneThread(main, &rsxRateWorkload{perMin: perThread})
	}
	if !k.RunUntilAlert(10 * time.Second) {
		t.Fatal("multi-threaded miner evaded detection despite tgid aggregation")
	}
	if a := k.Alerts()[0]; a.Tgid != main.Tgid {
		t.Errorf("alert tgid %d != miner tgid %d", a.Tgid, main.Tgid)
	}
}

func TestPerThreadThresholdMissesWhatTgidCatches(t *testing.T) {
	// Ablation: with thread-group sharing disabled (each thread spawned as
	// its own process), the same split miner stays under threshold.
	k := newTestKernel(t)
	perThread := 5.7e9 / 4
	for i := 0; i < 4; i++ {
		k.Spawn("split-miner", 1000, &rsxRateWorkload{perMin: perThread})
	}
	k.Run(10 * time.Second)
	if n := len(k.Alerts()); n != 0 {
		t.Errorf("per-process split miner alerted %d times; aggregation ablation broken", n)
	}
}

func TestDisabledDetection(t *testing.T) {
	k := newTestKernel(t)
	if err := k.ProcFS().Write(ProcEnabled, "0"); err != nil {
		t.Fatal(err)
	}
	k.Spawn("monero", 1000, &rsxRateWorkload{perMin: 50e9})
	k.Run(5 * time.Second)
	if len(k.Alerts()) != 0 {
		t.Error("alerts raised while disabled")
	}
	if k.Samples() != 0 {
		t.Error("housekeeping ran while disabled")
	}
}

func TestProcFSRoundTrip(t *testing.T) {
	k := newTestKernel(t)
	fs := k.ProcFS()
	if err := fs.Write(ProcThreshold, "1000000"); err != nil {
		t.Fatal(err)
	}
	v, err := fs.Read(ProcThreshold)
	if err != nil || v != "1000000" {
		t.Errorf("threshold read = %q, %v", v, err)
	}
	if err := fs.Write(ProcPeriod, "30000"); err != nil {
		t.Fatal(err)
	}
	if k.Tunables().Period != 30*time.Second {
		t.Errorf("period = %v", k.Tunables().Period)
	}
	if got := len(fs.List()); got != 7 {
		t.Errorf("List() len = %d", got)
	}
	for _, p := range fs.List() {
		if _, err := fs.Read(p); err != nil {
			t.Errorf("Read(%s): %v", p, err)
		}
	}
}

// TestProcFSRejectsBadValues: a rejected write returns an error and leaves
// every tunable as it was. The window cases hold whichever of period_ms and
// static_prior_divisor is written last (Period starts at 1s, divisor at 4).
func TestProcFSRejectsBadValues(t *testing.T) {
	cases := []struct {
		name        string
		setup       [][2]string // accepted writes before the rejected one
		path, value string
	}{
		{"zero threshold", nil, ProcThreshold, "0"},
		{"negative period", nil, ProcPeriod, "-5"},
		{"non-boolean enabled", nil, ProcEnabled, "maybe"},
		{"non-boolean monitor_root", nil, ProcMonitorRoot, "2"},
		{"period overflows Duration", nil, ProcPeriod, "9300000000000"},
		{"divisor wraps Duration negative", nil, ProcStaticDiv, "9223372036854775808"},
		{"divisor max uint64", nil, ProcStaticDiv, "18446744073709551615"},
		{"divisor leaves sub-ms window", nil, ProcStaticDiv, "1001"},
		{"period shrinks window under divisor", [][2]string{{ProcStaticDiv, "1000"}}, ProcPeriod, "999"},
		{"divisor after short period", [][2]string{{ProcStaticDiv, "1"}, {ProcPeriod, "3"}}, ProcStaticDiv, "4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t)
			fs := k.ProcFS()
			for _, w := range tc.setup {
				if err := fs.Write(w[0], w[1]); err != nil {
					t.Fatalf("setup Write(%s, %q): %v", w[0], w[1], err)
				}
			}
			before := k.Tunables()
			if err := fs.Write(tc.path, tc.value); err == nil {
				t.Errorf("Write(%s, %q) accepted", tc.path, tc.value)
			}
			if after := k.Tunables(); after != before {
				t.Errorf("rejected write changed tunables: %+v -> %+v", before, after)
			}
		})
	}
	fs := newTestKernel(t).ProcFS()
	if _, err := fs.Read("sys/rsx/nope"); err == nil {
		t.Error("Read of unknown path accepted")
	}
	if err := fs.Write("sys/rsx/nope", "1"); err == nil {
		t.Error("Write of unknown path accepted")
	}
}

func TestThresholdTunableChangesDetection(t *testing.T) {
	k := newTestKernel(t)
	// 1B/min miner: under the default 2.5B threshold.
	k.Spawn("slowminer", 1000, &rsxRateWorkload{perMin: 1e9})
	k.Run(3 * time.Second)
	if len(k.Alerts()) != 0 {
		t.Fatal("premature alert")
	}
	// Lower the threshold below the miner's rate: must now alert.
	if err := k.ProcFS().Write(ProcThreshold, strconv.Itoa(500_000_000)); err != nil {
		t.Fatal(err)
	}
	if !k.RunUntilAlert(5 * time.Second) {
		t.Error("no alert after lowering threshold")
	}
}

func TestTaskExitRemovesFromQueue(t *testing.T) {
	k := newTestKernel(t)
	ran := 0
	k.Spawn("oneshot", 1000, &FuncWorkload{F: func(core *cpu.Core, d time.Duration) bool {
		ran++
		return true // finish after one slice
	}})
	k.Run(time.Second)
	if ran != 1 {
		t.Errorf("one-shot task ran %d slices", ran)
	}
	tasks := k.Tasks()
	if len(tasks) != 1 || !tasks[0].Exited() {
		t.Error("task not marked exited")
	}
}

func TestSchedulerSharesCoresRoundRobin(t *testing.T) {
	k := newTestKernel(t)
	counts := make([]int, 6)
	for i := 0; i < 6; i++ {
		i := i
		k.Spawn("spin", 1000, &FuncWorkload{F: func(core *cpu.Core, d time.Duration) bool {
			counts[i]++
			return false
		}})
	}
	k.Run(120 * time.Millisecond) // 30 quanta x 4 cores = 120 slices / 6 tasks
	for i, c := range counts {
		if c < 15 || c > 25 {
			t.Errorf("task %d ran %d slices, want ~20", i, c)
		}
	}
}

func TestAlertStringIncludesRate(t *testing.T) {
	a := Alert{Time: 90 * time.Second, Pid: 1, Tgid: 1, Name: "xmr", RatePerMin: 5.7e9}
	s := a.String()
	if want := "5.70B RSX inst/min"; !contains(s, want) || !contains(s, "xmr") {
		t.Errorf("alert string = %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
