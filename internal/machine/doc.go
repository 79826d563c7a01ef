// Package machine bundles one simulated host — CPU, memory, kernel,
// decoder tag table, and observability scope — into a single self-contained
// Machine unit with no package-level state.
//
// The paper's prototype defends one host; its deployment target is cloud
// fleets where thousands of hosts run the same defense (CryptoGuard's
// setting in PAPERS.md). Machine is the unit of that scale-out: every piece
// of mutable simulation state (task lists, counters, RSX windows, caches,
// simulated clock) hangs off the Machine instance, so a process can run
// thousands of them concurrently (package fleet) with no cross-machine
// synchronization. Machines share only the immutable program images they
// run; every core decodes and caches its own basic blocks.
//
// A Machine is also the single-host entry point, assembling the paper's
// cross-stack defense (Figure 3): the decoder's RSX tags and retirement
// counter (hardware layer) plus context-switch sampling, tgid aggregation,
// procfs tunables and alerting (OS layer):
//
//	m, _ := machine.New(machine.DefaultOptions())
//	m.SpawnApp(someWorkloadProfile)
//	miner.SpawnMiner(m.Kernel(), miner.Monero, 0.3, 4, 1000)
//	m.Run(2 * time.Minute)
//	for _, a := range m.Alerts() { fmt.Println(a) }
//
// Its metrics registry (Machine.Obs, package obs) covers every layer
// above; OBSERVABILITY.md is the catalog.
package machine
