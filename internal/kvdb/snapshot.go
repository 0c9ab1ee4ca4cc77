package kvdb

import (
	"fmt"
	"sort"
)

// Verification reads for the conformance explorer (internal/conform): pure
// lock-only snapshots of the database's committed state, paying no modelled
// latency and allocating copies — the explorer compares final states across
// interleavings, so these reads must not perturb the clock or alias live
// rows.

// Tables returns every table name, sorted.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LatestRows returns deep copies of every live row of a table as of the
// newest commit: the version visible at the current timestamp oracle.
func (db *DB) LatestRows(name string) (map[string]Row, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	out := map[string]Row{}
	for pk, versions := range t.rows {
		if v, ok := visible(versions, db.ts); ok {
			out[pk] = v.row.clone()
		}
	}
	return out, nil
}
