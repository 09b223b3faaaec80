package delta

import "repro/internal/value"

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
			}
		}
	}
	return out
}
