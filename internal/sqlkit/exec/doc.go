// Package exec executes physical plans against the in-memory catalog.
//
// Besides producing result rows, the executor counts deterministic work
// units (tuples scanned, hash probes, comparisons). That counter is the
// latency signal the learned optimizers train on: it is perfectly
// reproducible across runs, unlike wall-clock time, while preserving the
// ordering of plan quality. A work budget implements the execution timeouts
// that Balsa (§3.3) relies on to avoid unpredictable stalls.
//
// Operators pass each other columnar relations: column segments read
// through row-id vectors, so scans filter into selections over the table's
// own columns, joins compose row ids, and Result.Rows is built once at the
// root. SeqScan, the HashJoin probe, NLJoin and HashAgg are each one kernel
// over a contiguous input shard (mlmath.ShardRange); a plan node's
// Partitions annotation sets the shard count, serial being the one-shard
// case run inline, and shards run on the mlmath.Pool in Options.Pool. The
// coordinator charges each shard in shard order, in closed form from the
// positions it processed and the positions that emitted tuples, so parallel
// execution is bit-identical to serial — same rows, same counters, same
// typed budget aborts, same explain trees — regardless of worker count. See
// docs/EXECUTOR.md for the full contract and the determinism argument.
package exec
