package kernel

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"darkarts/internal/obs"
)

// Tunables are the runtime-programmable detection parameters the paper
// exposes through procfs: "the monitoring period and threshold for a
// process are dynamically programmable at runtime using kernel tunables
// that can be updated using procfs" (Section IV-B).
//
//cryptojack:state
type Tunables struct {
	// ThresholdPerMin is the RSX-instructions-per-minute alert threshold
	// (paper default: 2.5e9).
	ThresholdPerMin uint64
	// Period is the monitoring window; alerts fire only on sustained RSX
	// rates across a whole window, never on sub-window bursts.
	Period time.Duration
	// Enabled turns the whole OS-side mechanism on/off (used by the
	// overhead experiments).
	Enabled bool
	// MonitorRoot, normally false, includes uid-0 processes. The paper
	// skips root processes to reduce overhead.
	MonitorRoot bool
	// SessionAggregation additionally aggregates RSX counts across whole
	// process trees (an extension beyond the paper's tgid aggregation: it
	// defeats miners that fork worker processes instead of threads).
	SessionAggregation bool
	// StaticPriorDivisor shortens the monitoring window for thread groups
	// statically flagged by guest-program analysis (TgidRSX.SetStaticPrior):
	// a flagged group's window is Period/divisor with a proportionally
	// scaled threshold — the same RSX rate criterion, confirmed in a
	// fraction of the time. 0 or 1 disables the shortening.
	StaticPriorDivisor uint64
}

// DefaultTunables returns the paper's deployment defaults.
func DefaultTunables() Tunables {
	return Tunables{
		ThresholdPerMin:    2_500_000_000,
		Period:             time.Minute,
		Enabled:            true,
		StaticPriorDivisor: 4,
	}
}

// thresholdForPeriod scales the per-minute threshold to the window length.
func (t Tunables) thresholdForPeriod() uint64 {
	return t.thresholdFor(t.Period)
}

// thresholdFor scales the per-minute threshold to an arbitrary window
// length (the static-prior path checks shortened windows).
func (t Tunables) thresholdFor(period time.Duration) uint64 {
	return uint64(float64(t.ThresholdPerMin) * period.Minutes())
}

// minWindow is the shortest monitoring window a procfs write may leave in
// force, static-prior windows included: the resolution of period_ms. A
// shorter window scales the threshold toward zero, which alerts on every
// context switch.
const minWindow = time.Millisecond

// checkWindow rejects a period and static-prior divisor that leave any
// monitoring window shorter than minWindow.
func checkWindow(period time.Duration, div uint64) error {
	if period < minWindow || div > uint64(period/minWindow) {
		return fmt.Errorf("period %s / static_prior_divisor %d leaves a window under %s", period, div, minWindow)
	}
	return nil
}

// periodFor returns the monitoring window for one accounting structure:
// the configured Period, divided by StaticPriorDivisor when the thread
// group carries a static-analysis flag.
func (t Tunables) periodFor(g *TgidRSX) time.Duration {
	if g.staticFlagged && t.StaticPriorDivisor > 1 {
		return t.Period / time.Duration(t.StaticPriorDivisor)
	}
	return t.Period
}

// ProcFS is a tiny virtual filesystem exposing the tunables, mirroring
// /proc/sys/. Paths are fixed: sys/rsx/{threshold_per_min,period_ms,
// enabled,monitor_root}.
type ProcFS struct {
	k *Kernel // cryptojack:derived -- stateless view, rebuilt by New
}

// procfs paths.
const (
	ProcThreshold   = "sys/rsx/threshold_per_min"
	ProcPeriod      = "sys/rsx/period_ms"
	ProcEnabled     = "sys/rsx/enabled"
	ProcMonitorRoot = "sys/rsx/monitor_root"
	ProcSessionAgg  = "sys/rsx/session_aggregation"
	ProcStaticDiv   = "sys/rsx/static_prior_divisor"
	// ProcStats is the read-only observability view: every registered
	// metric of the kernel's registry (scheduler phase timings, per-core
	// busy/idle, TLB and window statistics, alert latency) plus the trace
	// tail, rendered as aligned text. See OBSERVABILITY.md.
	ProcStats = "proc/cryptojack/stats"
)

// List returns all exposed paths, sorted.
func (p *ProcFS) List() []string {
	paths := []string{ProcThreshold, ProcPeriod, ProcEnabled, ProcMonitorRoot, ProcSessionAgg, ProcStaticDiv, ProcStats}
	sort.Strings(paths)
	return paths
}

// Read returns the current value of a tunable or per-process file. Safe
// to call while the simulation is running on another goroutine.
func (p *ProcFS) Read(path string) (string, error) {
	if pid, file, ok := parseProcPath(path); ok {
		return p.k.readProcPid(pid, file)
	}
	if path == ProcStats {
		// RenderText takes only the registry's own locks, so the stats
		// file is readable while the simulation runs.
		return p.k.Obs().RenderText(), nil
	}
	t := p.k.Tunables()
	switch path {
	case ProcThreshold:
		return strconv.FormatUint(t.ThresholdPerMin, 10), nil
	case ProcPeriod:
		return strconv.FormatInt(t.Period.Milliseconds(), 10), nil
	case ProcEnabled:
		return boolFile(t.Enabled), nil
	case ProcMonitorRoot:
		return boolFile(t.MonitorRoot), nil
	case ProcSessionAgg:
		return boolFile(t.SessionAggregation), nil
	case ProcStaticDiv:
		return strconv.FormatUint(t.StaticPriorDivisor, 10), nil
	default:
		return "", fmt.Errorf("procfs: no such file %q", path)
	}
}

// Write updates a tunable or per-process file. Values take effect at the
// next context switch, exactly like a sysctl.
func (p *ProcFS) Write(path, value string) error {
	if pid, file, ok := parseProcPath(path); ok {
		return p.k.writeProcPid(pid, file, value)
	}
	value = strings.TrimSpace(value)
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	switch path {
	case ProcThreshold:
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil || v == 0 {
			return fmt.Errorf("procfs: %s: invalid threshold %q", path, value)
		}
		p.k.tunables.ThresholdPerMin = v
	case ProcPeriod:
		ms, err := strconv.ParseInt(value, 10, 64)
		if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			return fmt.Errorf("procfs: %s: invalid period %q", path, value)
		}
		period := time.Duration(ms) * time.Millisecond
		if err := checkWindow(period, p.k.tunables.StaticPriorDivisor); err != nil {
			return fmt.Errorf("procfs: %s: %w", path, err)
		}
		p.k.tunables.Period = period
	case ProcEnabled:
		b, err := parseBoolFile(value)
		if err != nil {
			return fmt.Errorf("procfs: %s: %w", path, err)
		}
		p.k.tunables.Enabled = b
	case ProcMonitorRoot:
		b, err := parseBoolFile(value)
		if err != nil {
			return fmt.Errorf("procfs: %s: %w", path, err)
		}
		p.k.tunables.MonitorRoot = b
	case ProcSessionAgg:
		b, err := parseBoolFile(value)
		if err != nil {
			return fmt.Errorf("procfs: %s: %w", path, err)
		}
		p.k.tunables.SessionAggregation = b
	case ProcStaticDiv:
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("procfs: %s: invalid divisor %q", path, value)
		}
		if err := checkWindow(p.k.tunables.Period, v); err != nil {
			return fmt.Errorf("procfs: %s: %w", path, err)
		}
		p.k.tunables.StaticPriorDivisor = v
	default:
		return fmt.Errorf("procfs: no such file %q", path)
	}
	if p.k.om != nil {
		p.k.om.reg.Tracer().Record(obs.Event{
			Time: p.k.now, Kind: obs.EvTunableWrite, Note: path + "=" + value,
		})
	}
	return nil
}

func boolFile(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func parseBoolFile(s string) (bool, error) {
	switch s {
	case "0":
		return false, nil
	case "1":
		return true, nil
	default:
		return false, fmt.Errorf("invalid boolean %q (want 0 or 1)", s)
	}
}
