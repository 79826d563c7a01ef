package kernel

import (
	"testing"
	"time"

	"darkarts/internal/cpu"
)

// FuzzProcFSWrite writes an arbitrary value to an arbitrary procfs path of
// a kernel running one task. No write may panic, a rejected write must
// leave the tunables unchanged, and an accepted write must leave every
// monitoring window (Period, and Period/StaticPriorDivisor for statically
// flagged groups) at least 1 ms long.
func FuzzProcFSWrite(f *testing.F) {
	for _, seed := range [][2]string{
		// The rejected writes of TestProcFSRejectsBadValues.
		{ProcThreshold, "0"},
		{ProcPeriod, "-5"},
		{ProcEnabled, "maybe"},
		{ProcMonitorRoot, "2"},
		{ProcPeriod, "9300000000000"},
		{ProcStaticDiv, "9223372036854775808"},
		{ProcStaticDiv, "18446744073709551615"},
		{ProcStaticDiv, "1001"},
		{ProcPeriod, "3"},
		{"sys/rsx/nope", "1"},
		// Accepted writes, including its setup writes.
		{ProcStaticDiv, "1000"},
		{ProcStaticDiv, "1"},
		{ProcPeriod, "999"},
		{ProcSessionAgg, " 1\n"},
		{"proc/1001/exempt", "1"}, // the spawned task's pid
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, path, value string) {
		k := newTestKernel(t)
		k.Spawn("idle", 1000, &FuncWorkload{F: func(*cpu.Core, time.Duration) bool { return false }})
		before := k.Tunables()
		if err := k.ProcFS().Write(path, value); err != nil {
			if after := k.Tunables(); after != before {
				t.Fatalf("rejected Write(%q, %q) changed tunables: %+v -> %+v", path, value, before, after)
			}
			return
		}
		tun := k.Tunables()
		window := tun.Period
		if tun.StaticPriorDivisor > 1 {
			window /= time.Duration(tun.StaticPriorDivisor)
		}
		if tun.Period < time.Millisecond || window < time.Millisecond {
			t.Fatalf("accepted Write(%q, %q) left period %s / divisor %d under 1ms",
				path, value, tun.Period, tun.StaticPriorDivisor)
		}
	})
}
