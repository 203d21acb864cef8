// Package cluster scales the single-process serving tier out to a
// partitioned corpus: a deterministic shard map assigns every series to
// one shard by its stable global ID, each shard is a full corpus + store
// + engine stack behind the existing server API (a query leg is its
// /query/stream, its geometry its /stats), and a scatter-gather
// coordinator broadcasts each query to all shards and merges the per-shard
// answers deterministically. In-process shards of one top-k query prune
// against one global cut, shared as it tightens; a remote shard prunes
// against its own (see HTTPShard).
//
// Two invariants make the merged answers bit-identical to a single-node
// corpus holding the same series:
//
//   - Global IDs everywhere. The coordinator allocates monotonically
//     increasing global IDs and shards ingest under them (ApplyAt), so a
//     shard's entry is indistinguishable from the same entry in one big
//     corpus, and position order equals ID order on every shard — the
//     tie-break order of every query kind.
//
//   - Sound shared bounds. A shard's k-th best is the k-th best of a
//     subset, hence a true upper bound on the global k-th; the shared
//     engine.Bound only ever carries such values (ulpUp-inflated so exact
//     ties survive), so a candidate abandoned against it can never belong
//     to the merged answer.
//
// Failure semantics are graceful: an unreachable or timed-out shard
// yields a degraded response carrying the partial merge plus typed
// per-shard errors (qerr.ErrShardUnreachable / qerr.ErrShardTimeout,
// mapped to 502/504 when no shard answered at all).
package cluster

// ShardFor maps a stable series ID to its owning shard among n. The hash
// is the splitmix64 finalizer — every input bit avalanches into every
// output bit, so contiguous coordinator-allocated IDs spread evenly —
// and it is part of the persistent format: resident series were routed
// by it, so changing it would silently orphan them. The golden tests pin
// it value-for-value.
func ShardFor(id, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
