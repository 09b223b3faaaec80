package delta

import (
	"repro/internal/obs"
	"repro/internal/value"
)

// Registry mirrors of shard splitting: how many signed-row units were
// routed and how many modifications had to be torn into a cross-shard
// delete+insert pair because the old and new tuples hash to different
// shards (a join-key change that migrates the row).
var (
	obsShardSplitUnits = obs.C("delta.shard.split.units")
	obsShardSplitTorn  = obs.C("delta.shard.split.torn_modifies")
)

// RouteFunc maps one tuple of the named base relation to a shard in
// [0, n). It must be a pure function of the tuple bytes so that a tuple
// always lands on the same shard no matter which window carries it.
type RouteFunc func(rel string, t value.Tuple) int

// SplitDelta partitions d across n shards: every insert routes by its
// new tuple, every delete by its old tuple, and a modification stays a
// modification when both sides route to the same shard but tears into a
// delete on the old tuple's shard plus an insert on the new tuple's
// shard when the partition value itself changed. Change order within
// each shard preserves d's order, so two splits of equal deltas are
// byte-identical. Shards that receive nothing hold nil.
func SplitDelta(d *Delta, n int, route func(t value.Tuple) int) []*Delta {
	out := make([]*Delta, n)
	if d.Empty() {
		return out
	}
	at := func(i int) *Delta {
		if out[i] == nil {
			out[i] = New(d.Schema)
		}
		return out[i]
	}
	for _, c := range d.Changes {
		switch {
		case c.IsInsert():
			at(route(c.New)).Insert(c.New, c.Count)
		case c.IsDelete():
			at(route(c.Old)).Delete(c.Old, c.Count)
		default:
			so, sn := route(c.Old), route(c.New)
			if so == sn {
				at(so).Modify(c.Old, c.New, c.Count)
			} else {
				at(so).Delete(c.Old, c.Count)
				at(sn).Insert(c.New, c.Count)
				obsShardSplitTorn.Inc()
			}
		}
	}
	obsShardSplitUnits.Add(signedUnits(d))
	return out
}

// SplitUpdates partitions one transaction's per-relation updates across
// n shards via SplitDelta. The result has one updates map per shard;
// shards the transaction does not touch hold nil maps. Splitting before
// coalescing and coalescing after splitting commute: netting is per
// tuple key and every occurrence of a tuple routes to the same shard,
// so each shard's local Coalesce sees exactly the signed rows the
// global Coalesce would have assigned it.
func SplitUpdates(updates map[string]*Delta, n int, route RouteFunc) []map[string]*Delta {
	out := make([]map[string]*Delta, n)
	for rel, d := range updates {
		parts := SplitDelta(d, n, func(t value.Tuple) int { return route(rel, t) })
		for i, p := range parts {
			if p.Empty() {
				continue
			}
			if out[i] == nil {
				out[i] = map[string]*Delta{}
			}
			out[i][rel] = p
		}
	}
	return out
}
