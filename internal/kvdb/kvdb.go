// Package kvdb implements the serverless database BaaS of §4.1: a
// multi-version, snapshot-isolated transactional table store with secondary
// indexes. The paper observes that "since most FaaS platforms re-execute
// functions transparently on failure, the transactional semantics offered by
// serverless database services can be crucial for ensuring correctness" —
// RunTxn models exactly that transparent re-execution, and the test suite
// verifies that concurrent re-executed transactions remain correct.
//
// Concurrency control is first-committer-wins snapshot isolation: a
// transaction reads the committed state as of its begin timestamp, buffers
// its writes, and aborts at commit if any written key was committed by
// another transaction in the interim.
package kvdb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Errors returned by DB operations.
var (
	ErrNoTable     = errors.New("kvdb: table does not exist")
	ErrTableExists = errors.New("kvdb: table already exists")
	ErrConflict    = errors.New("kvdb: write-write conflict, transaction aborted")
	ErrTxnDone     = errors.New("kvdb: transaction already committed or aborted")
	ErrNoIndex     = errors.New("kvdb: no index on column")
)

// Row is one record: column name → value. The primary key is kept outside
// the row.
type Row map[string]string

func (r Row) clone() Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

type rowVersion struct {
	commitTS int64
	row      Row
}

type table struct {
	name    string
	tenant  string
	rows    map[string][]rowVersion                   // pk → versions, commitTS ascending
	indexes map[string]map[string]map[string]struct{} // col → value → pk set
}

// DB is an in-process serverless database instance.
type DB struct {
	clock simclock.Clock
	meter *billing.Meter

	mu     sync.Mutex
	ts     int64 // commit timestamp oracle
	tables map[string]*table

	// Pre-resolved observability handles; nil (no-ops) until SetObs.
	obsGetLat    *obs.Histogram
	obsCommitLat *obs.Histogram
	obsConflicts *obs.Counter
}

// New creates an empty DB. meter may be nil.
func New(clock simclock.Clock, meter *billing.Meter) *DB {
	return &DB{clock: clock, meter: meter, tables: map[string]*table{}}
}

// SetObs attaches observability instruments. Call before traffic starts.
func (db *DB) SetObs(r *obs.Registry) {
	db.obsGetLat = r.Histogram("kvdb.get.latency")
	db.obsCommitLat = r.Histogram("kvdb.commit.latency")
	db.obsConflicts = r.Counter("kvdb.txn.conflicts")
}

// CreateTable makes a table billed to tenant, with secondary indexes on the
// named columns.
func (db *DB) CreateTable(name, tenant string, indexCols ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t := &table{name: name, tenant: tenant, rows: map[string][]rowVersion{}, indexes: map[string]map[string]map[string]struct{}{}}
	for _, c := range indexCols {
		t.indexes[c] = map[string]map[string]struct{}{}
	}
	db.tables[name] = t
	return nil
}

type writeKey struct {
	table string
	pk    string
}

// Txn is a snapshot-isolated transaction. Not safe for concurrent use by
// multiple goroutines.
type Txn struct {
	db     *DB
	readTS int64
	writes map[writeKey]Row
	order  []writeKey // write order, for deterministic index updates
	done   bool
}

// Begin starts a transaction reading the latest committed snapshot.
func (db *DB) Begin() *Txn {
	db.mu.Lock()
	defer db.mu.Unlock()
	return &Txn{db: db, readTS: db.ts, writes: map[writeKey]Row{}}
}

// Get returns the row for pk visible in this transaction's snapshot,
// including the transaction's own buffered writes.
func (tx *Txn) Get(tableName, pk string) (Row, bool, error) {
	if tx.done {
		return nil, false, ErrTxnDone
	}
	if tx.db.obsGetLat != nil {
		start := tx.db.clock.Now()
		defer func() { tx.db.obsGetLat.Observe(tx.db.clock.Now().Sub(start)) }()
	}
	if w, ok := tx.writes[writeKey{tableName, pk}]; ok {
		return w.clone(), true, nil
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	t, ok := tx.db.tables[tableName]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	tx.db.meterAdd(t.tenant, billing.ResDBReadUnits, 1)
	v, ok := visible(t.rows[pk], tx.readTS)
	if !ok {
		return nil, false, nil
	}
	return v.row.clone(), true, nil
}

// Put buffers a full-row write.
func (tx *Txn) Put(tableName, pk string, row Row) error {
	if tx.done {
		return ErrTxnDone
	}
	if err := tx.checkTable(tableName); err != nil {
		return err
	}
	k := writeKey{tableName, pk}
	if _, seen := tx.writes[k]; !seen {
		tx.order = append(tx.order, k)
	}
	tx.writes[k] = row.clone()
	return nil
}

// Scan returns every (pk, row) visible in the snapshot, pk-sorted, merged
// with the transaction's buffered writes.
func (tx *Txn) Scan(tableName string) (map[string]Row, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	tx.db.mu.Lock()
	t, ok := tx.db.tables[tableName]
	if !ok {
		tx.db.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	out := map[string]Row{}
	for pk, versions := range t.rows {
		if v, ok := visible(versions, tx.readTS); ok {
			out[pk] = v.row.clone()
		}
	}
	tx.db.meterAdd(t.tenant, billing.ResDBReadUnits, float64(len(out)))
	tx.db.mu.Unlock()
	for k, w := range tx.writes {
		if k.table == tableName {
			out[k.pk] = w.clone()
		}
	}
	return out, nil
}

// IndexLookup returns the pks of rows whose indexed column equals value in
// this snapshot, sorted. Buffered writes of this transaction are merged in.
func (tx *Txn) IndexLookup(tableName, column, value string) ([]string, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	tx.db.mu.Lock()
	t, ok := tx.db.tables[tableName]
	if !ok {
		tx.db.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	idx, ok := t.indexes[column]
	if !ok {
		tx.db.mu.Unlock()
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, tableName, column)
	}
	set := map[string]bool{}
	// Index entries are insert-only hints; each candidate is verified
	// against the snapshot so stale entries never leak.
	for pk := range idx[value] {
		if v, ok := visible(t.rows[pk], tx.readTS); ok && v.row[column] == value {
			set[pk] = true
		}
	}
	tx.db.meterAdd(t.tenant, billing.ResDBReadUnits, 1)
	tx.db.mu.Unlock()
	for k, w := range tx.writes {
		if k.table != tableName {
			continue
		}
		if w[column] == value {
			set[k.pk] = true
		} else {
			delete(set, k.pk)
		}
	}
	out := make([]string, 0, len(set))
	for pk := range set {
		out = append(out, pk)
	}
	sort.Strings(out)
	return out, nil
}

// Commit atomically applies the buffered writes, or returns ErrConflict if
// any written key was committed by another transaction since this one began.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	tx.done = true
	if len(tx.writes) == 0 {
		return nil
	}
	if tx.db.obsCommitLat != nil {
		start := tx.db.clock.Now()
		defer func() { tx.db.obsCommitLat.Observe(tx.db.clock.Now().Sub(start)) }()
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	// First-committer-wins validation.
	for k := range tx.writes {
		t, ok := tx.db.tables[k.table]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoTable, k.table)
		}
		if vs := t.rows[k.pk]; len(vs) > 0 && vs[len(vs)-1].commitTS > tx.readTS {
			tx.db.obsConflicts.Inc()
			return fmt.Errorf("%w: key %s/%s", ErrConflict, k.table, k.pk)
		}
	}
	tx.db.ts++
	commitTS := tx.db.ts
	for _, k := range tx.order {
		w := tx.writes[k]
		t := tx.db.tables[k.table]
		t.rows[k.pk] = append(t.rows[k.pk], rowVersion{commitTS: commitTS, row: w})
		for col, idx := range t.indexes {
			if val, ok := w[col]; ok {
				if idx[val] == nil {
					idx[val] = map[string]struct{}{}
				}
				idx[val][k.pk] = struct{}{}
			}
		}
		tx.db.meterAdd(t.tenant, billing.ResDBWriteUnits, 1)
	}
	return nil
}

// Abort discards the transaction's buffered writes.
func (tx *Txn) Abort() {
	tx.done = true
	tx.writes = nil
}

// MaxTxnRetries bounds RunTxn's retry loop.
const MaxTxnRetries = 64

// RunTxn executes fn in a transaction, transparently re-executing it on
// conflict — the same at-least-once re-execution discipline FaaS platforms
// apply to failed functions (§4.1). fn must be idempotent apart from its
// transactional effects.
func (db *DB) RunTxn(fn func(tx *Txn) error) error {
	for i := 0; i < MaxTxnRetries; i++ {
		tx := db.Begin()
		if err := fn(tx); err != nil {
			tx.Abort()
			return err
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
		// Brief backoff keeps herds of re-executed functions from
		// re-colliding in lockstep.
		db.clock.Sleep(time.Duration(i+1) * time.Millisecond)
	}
	return fmt.Errorf("%w: retries exhausted", ErrConflict)
}

// Vacuum reclaims row versions that no transaction reading at or after
// horizon can observe: for every key it keeps all versions newer than
// horizon plus the newest version at or below it (the one such readers
// resolve to). Snapshots older than horizon may lose history, as with any
// MVCC vacuum; the caller picks a horizon no newer than its oldest live
// snapshot. It returns the number of versions dropped.
func (db *DB) Vacuum(horizon int64) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	dropped := 0
	for _, t := range db.tables {
		for pk, versions := range t.rows {
			// Find the newest version with commitTS ≤ horizon.
			keepFrom := 0
			for i, v := range versions {
				if v.commitTS <= horizon {
					keepFrom = i
				}
			}
			if keepFrom > 0 {
				dropped += keepFrom
				t.rows[pk] = append([]rowVersion{}, versions[keepFrom:]...)
			}
		}
	}
	return dropped
}

func (tx *Txn) checkTable(name string) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	if _, ok := tx.db.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return nil
}

// visible returns the newest version with commitTS ≤ readTS.
func visible(versions []rowVersion, readTS int64) (rowVersion, bool) {
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i].commitTS <= readTS {
			return versions[i], true
		}
	}
	return rowVersion{}, false
}

func (db *DB) meterAdd(tenant, resource string, units float64) {
	if db.meter != nil {
		db.meter.Add(billing.Record{Tenant: tenant, Resource: resource, Units: units})
	}
}
