// Package fleet runs thousands of machine.Machine instances in one
// process as a sharded, multi-tenant detection service.
//
// Machines are partitioned across per-shard worker goroutines and advance
// in lock-step rounds of simulated time; at every round barrier the
// coordinator drains per-machine alert batches into one canonically
// ordered stream (machine-ID order), which makes the stream bit-identical
// across shard counts and across runs for the same seed and submission
// schedule. Tenants submit workloads through the HTTP/JSON API (Handler);
// placement records which thread groups belong to which tenant so alert
// reads can be scoped per tenant. Machines share only the immutable
// program images of the ISA catalog; each core decodes its own blocks.
//
// FLEET.md documents the architecture; OBSERVABILITY.md catalogs the
// fleet_* metrics; cmd/fleetload drives load at fleet scale.
package fleet
