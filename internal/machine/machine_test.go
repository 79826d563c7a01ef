package machine

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"darkarts/internal/kernel"
	"darkarts/internal/miner"
)

// testOptions returns a machine with a short monitoring window so miners
// alert within a few simulated seconds, fleet-style (no private registry,
// serial in-machine scheduling).
func testOptions() Options {
	o := DefaultOptions()
	o.Kernel.Parallel = false
	o.Kernel.Obs = nil
	o.Kernel.Tunables.Period = 2 * time.Second
	return o
}

// TestMachineDetectsMiner: the assembled unit still implements the paper's
// pipeline end to end.
func TestMachineDetectsMiner(t *testing.T) {
	m, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)
	if !m.RunUntilAlert(10 * time.Second) {
		t.Fatal("no alert within 10s of simulated time")
	}
	alerts := m.Alerts()
	if len(alerts) == 0 || alerts[0].Name != "monero" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

// TestMachinesIndependent: two machines driven from separate goroutines
// with identical configs produce identical alert histories — the no-
// package-level-state property fleet sharding rests on.
func TestMachinesIndependent(t *testing.T) {
	build := func() *Machine {
		m, err := New(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		miner.SpawnMiner(m.Kernel(), miner.Monero, 0, 4, 1000)
		return m
	}
	a, b := build(), build()
	var wg sync.WaitGroup
	for _, m := range []*Machine{a, b} {
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			m.Run(5 * time.Second)
		}(m)
	}
	wg.Wait()
	if !reflect.DeepEqual(a.Alerts(), b.Alerts()) {
		t.Fatalf("independent machines diverged:\n a %+v\n b %+v", a.Alerts(), b.Alerts())
	}
	if a.Now() != b.Now() {
		t.Fatalf("clocks diverged: %s vs %s", a.Now(), b.Now())
	}
}

// TestMachineBadTagSet: construction validates the tag set.
func TestMachineBadTagSet(t *testing.T) {
	opts := testOptions()
	opts.TagSet = "everything"
	if _, err := New(opts); err == nil {
		t.Fatal("unknown tag set accepted")
	}
}

// TestMachineProcFS: the per-machine tunables surface works through the
// unit wrapper.
func TestMachineProcFS(t *testing.T) {
	m, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ProcFS().Write(kernel.ProcThreshold, "1000000"); err != nil {
		t.Fatal(err)
	}
	v, err := m.ProcFS().Read(kernel.ProcThreshold)
	if err != nil || v != "1000000" {
		t.Fatalf("threshold readback = %q, %v", v, err)
	}
}
