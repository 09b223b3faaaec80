package delta

import (
	"repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/value"
)

// Probe answers a point query on a pre-update input: all rows whose key
// columns equal jk. The caller decides how the probe is served (index
// lookup on a materialized view, recursive evaluation, ...), which is
// where the paper's query costs arise.
type Probe func(jk value.Tuple) ([]storage.Row, error)

// CountProbe answers "what is the pre-update multiplicity of t".
type CountProbe func(t value.Tuple) (int64, error)

// Distinct propagates d through duplicate elimination. countOf reports
// the pre-update bag multiplicity of a tuple in the child; nz is the
// caller's netting scratch.
func Distinct(dis *algebra.Distinct, d *Delta, countOf CountProbe, nz *Normalizer) (*Delta, error) {
	// Work on the normalized (signed) form: distinct output changes only
	// when a tuple's count crosses 0.
	net := nz.Normalize(d)
	out := New(d.Schema)
	for _, c := range net.Changes {
		switch {
		case c.IsInsert():
			before, err := countOf(c.New)
			if err != nil {
				return nil, err
			}
			if before == 0 {
				out.Insert(c.New, 1)
			}
		case c.IsDelete():
			before, err := countOf(c.Old)
			if err != nil {
				return nil, err
			}
			if before-c.Count <= 0 && before > 0 {
				out.Delete(c.Old, 1)
			}
		}
	}
	return out, nil
}

// DiffSide propagates a delta through bag difference L − R (counts floor
// at zero). side 0 means d is against L. countL and countR report
// pre-update multiplicities; nz is the caller's netting scratch.
func DiffSide(diff *algebra.Diff, d *Delta, side int, countL, countR CountProbe, nz *Normalizer) (*Delta, error) {
	net := nz.Normalize(d)
	// Net signed change per tuple on the changed side.
	type affected struct {
		tuple value.Tuple
		delta int64
	}
	var all []affected
	for _, c := range net.Changes {
		n := c.Count
		if n == 0 {
			n = 1
		}
		switch {
		case c.IsInsert():
			all = append(all, affected{c.New, +n})
		case c.IsDelete():
			all = append(all, affected{c.Old, -n})
		}
	}
	out := New(diff.Schema())
	for _, a := range all {
		l, err := countL(a.tuple)
		if err != nil {
			return nil, err
		}
		r, err := countR(a.tuple)
		if err != nil {
			return nil, err
		}
		oldOut := maxInt64(0, l-r)
		var newOut int64
		if side == 0 {
			newOut = maxInt64(0, l+a.delta-r)
		} else {
			newOut = maxInt64(0, l-(r+a.delta))
		}
		switch {
		case newOut > oldOut:
			out.Insert(a.tuple, newOut-oldOut)
		case newOut < oldOut:
			out.Delete(a.tuple, oldOut-newOut)
		}
	}
	return out, nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// GroupRowsFromDelta extracts, per group key, the OLD rows present in the
// delta itself. It serves as the oldGroup probe when the delta is known
// to cover entire groups (the paper's key-based optimization that makes
// query Q3d free: "the result propagated up along E5 and N4 contains all
// the tuples in the group").
func GroupRowsFromDelta(d *Delta, groupCols []string) (func(value.Tuple) ([]storage.Row, error), error) {
	pos := make([]int, len(groupCols))
	for i, c := range groupCols {
		j, err := d.Schema.Resolve(c)
		if err != nil {
			return nil, err
		}
		pos[i] = j
	}
	byGroup := map[string][]storage.Row{}
	var enc value.KeyEncoder
	for _, c := range d.Changes {
		if c.Old == nil {
			continue
		}
		n := c.Count
		if n == 0 {
			n = 1
		}
		kb := enc.ProjectedKey(c.Old, pos)
		byGroup[string(kb)] = append(byGroup[string(kb)], storage.Row{Tuple: c.Old, Count: n})
	}
	return func(gk value.Tuple) ([]storage.Row, error) {
		return byGroup[string(enc.Key(gk))], nil
	}, nil
}

// projEqual reports whether two tuples agree on the given positions,
// without materializing the projections.
func projEqual(a, b value.Tuple, pos []int) bool {
	for _, j := range pos {
		if !value.Equal(a[j], b[j]) {
			return false
		}
	}
	return true
}
