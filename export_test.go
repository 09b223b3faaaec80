package mvmaint

import (
	"time"

	"repro/internal/core"
)

// BuildPhases runs Build's three phases for names on db — DAG expansion,
// the view-set search, materialization — and times each.
func BuildPhases(db *DB, names []string, cfg Config) (grow, search, store time.Duration, res *core.Result, err error) {
	t0 := time.Now()
	d, _, err := expand(db, names)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	t1 := time.Now()
	if res, err = optimize(d, cfg); err != nil {
		return 0, 0, 0, nil, err
	}
	t2 := time.Now()
	if _, err = materialize(db, d, res.Best.Set, nil); err != nil {
		return 0, 0, 0, nil, err
	}
	return t1.Sub(t0), t2.Sub(t1), time.Since(t2), res, nil
}
