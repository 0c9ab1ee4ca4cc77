package kvdb

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/billing"
	"repro/internal/simclock"
)

func newDB() *DB { return New(simclock.Real{}, nil) }

func TestPutGetCommit(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("users", "t"))
	tx := db.Begin()
	must(t, tx.Put("users", "u1", Row{"name": "ada"}))
	// Read-your-writes before commit.
	row, ok, err := tx.Get("users", "u1")
	if err != nil || !ok || row["name"] != "ada" {
		t.Fatalf("read-your-writes: %v %v %v", row, ok, err)
	}
	must(t, tx.Commit())

	tx2 := db.Begin()
	row, ok, _ = tx2.Get("users", "u1")
	if !ok || row["name"] != "ada" {
		t.Fatalf("committed read: %v %v", row, ok)
	}
}

func TestSnapshotIsolationNoDirtyRead(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("tbl", "t"))
	writer := db.Begin()
	must(t, writer.Put("tbl", "k", Row{"v": "draft"}))

	reader := db.Begin()
	_, ok, _ := reader.Get("tbl", "k")
	if ok {
		t.Fatal("dirty read of uncommitted write")
	}
	must(t, writer.Commit())
	// Reader's snapshot predates the commit: still invisible.
	_, ok, _ = reader.Get("tbl", "k")
	if ok {
		t.Fatal("non-repeatable read: commit leaked into old snapshot")
	}
	// A new transaction sees it.
	_, ok, _ = db.Begin().Get("tbl", "k")
	if !ok {
		t.Fatal("new snapshot missing committed row")
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("tbl", "t"))
	seed := db.Begin()
	must(t, seed.Put("tbl", "k", Row{"n": "0"}))
	must(t, seed.Commit())

	a, b := db.Begin(), db.Begin()
	must(t, a.Put("tbl", "k", Row{"n": "a"}))
	must(t, b.Put("tbl", "k", Row{"n": "b"}))
	must(t, a.Commit())
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	row, _, _ := db.Begin().Get("tbl", "k")
	if row["n"] != "a" {
		t.Fatalf("winner = %v", row)
	}
}

func TestDisjointWritesBothCommit(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("tbl", "t"))
	a, b := db.Begin(), db.Begin()
	must(t, a.Put("tbl", "x", Row{"v": "1"}))
	must(t, b.Put("tbl", "y", Row{"v": "2"}))
	must(t, a.Commit())
	must(t, b.Commit())
}

func TestScanMergesBufferedWrites(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("tbl", "t"))
	seed := db.Begin()
	must(t, seed.Put("tbl", "a", Row{"v": "1"}))
	must(t, seed.Put("tbl", "b", Row{"v": "2"}))
	must(t, seed.Commit())

	tx := db.Begin()
	must(t, tx.Put("tbl", "c", Row{"v": "3"}))
	must(t, tx.Put("tbl", "a", Row{"v": "4"}))
	rows, err := tx.Scan("tbl")
	must(t, err)
	if len(rows) != 3 || rows["a"]["v"] != "4" || rows["b"]["v"] != "2" || rows["c"]["v"] != "3" {
		t.Fatalf("scan = %v", rows)
	}
}

func TestIndexLookup(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("devices", "t", "kind"))
	seed := db.Begin()
	must(t, seed.Put("devices", "d1", Row{"kind": "sensor"}))
	must(t, seed.Put("devices", "d2", Row{"kind": "sensor"}))
	must(t, seed.Put("devices", "d3", Row{"kind": "camera"}))
	must(t, seed.Commit())

	tx := db.Begin()
	pks, err := tx.IndexLookup("devices", "kind", "sensor")
	must(t, err)
	if len(pks) != 2 || pks[0] != "d1" || pks[1] != "d2" {
		t.Fatalf("lookup = %v", pks)
	}
	if _, err := tx.IndexLookup("devices", "nope", "x"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestIndexRespectsSnapshotAndUpdates(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("devices", "t", "kind"))
	seed := db.Begin()
	must(t, seed.Put("devices", "d1", Row{"kind": "sensor"}))
	must(t, seed.Commit())

	old := db.Begin()
	// Re-type d1 to camera in a later transaction.
	up := db.Begin()
	must(t, up.Put("devices", "d1", Row{"kind": "camera"}))
	must(t, up.Commit())

	// Old snapshot still sees it as a sensor.
	pks, _ := old.IndexLookup("devices", "kind", "sensor")
	if len(pks) != 1 {
		t.Fatalf("old snapshot lookup = %v", pks)
	}
	// New snapshot: stale index entry must not leak.
	pks, _ = db.Begin().IndexLookup("devices", "kind", "sensor")
	if len(pks) != 0 {
		t.Fatalf("stale index entry leaked: %v", pks)
	}
	pks, _ = db.Begin().IndexLookup("devices", "kind", "camera")
	if len(pks) != 1 {
		t.Fatalf("new value lookup = %v", pks)
	}
}

func TestIndexLookupMergesBufferedWrites(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("devices", "t", "kind"))
	tx := db.Begin()
	must(t, tx.Put("devices", "d9", Row{"kind": "sensor"}))
	pks, _ := tx.IndexLookup("devices", "kind", "sensor")
	if len(pks) != 1 || pks[0] != "d9" {
		t.Fatalf("buffered write not visible to index lookup: %v", pks)
	}
}

func TestTxnDone(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("tbl", "t"))
	tx := db.Begin()
	must(t, tx.Commit())
	if err := tx.Put("tbl", "k", Row{}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit err = %v", err)
	}
	tx2 := db.Begin()
	tx2.Abort()
	if _, _, err := tx2.Get("tbl", "k"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err after abort = %v", err)
	}
}

// TestRunTxnCounterUnderReexecution is the paper's §4.1 claim in miniature:
// concurrent, transparently re-executed transactions (as a FaaS platform
// re-runs failed functions) must not lose updates.
func TestRunTxnCounterUnderReexecution(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("counters", "t"))
	seed := db.Begin()
	must(t, seed.Put("counters", "hits", Row{"n": "0"}))
	must(t, seed.Commit())

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := db.RunTxn(func(tx *Txn) error {
					row, _, err := tx.Get("counters", "hits")
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(row["n"])
					return tx.Put("counters", "hits", Row{"n": strconv.Itoa(n + 1)})
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	row, _, _ := db.Begin().Get("counters", "hits")
	if row["n"] != fmt.Sprint(goroutines*perG) {
		t.Fatalf("counter = %s, want %d (lost updates)", row["n"], goroutines*perG)
	}
}

func TestRunTxnPropagatesUserError(t *testing.T) {
	db := newDB()
	boom := errors.New("boom")
	if err := db.RunTxn(func(*Txn) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableErrors(t *testing.T) {
	db := newDB()
	tx := db.Begin()
	if _, _, err := tx.Get("none", "k"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Put("none", "k", Row{}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	must(t, db.CreateTable("tbl", "t"))
	if err := db.CreateTable("tbl", "t"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := newDB()
	must(t, db.CreateTable("tbl", "t"))
	tx := db.Begin()
	must(t, tx.Put("tbl", "k", Row{"v": "1"}))
	must(t, tx.Commit())
	tx2 := db.Begin()
	row, _, _ := tx2.Get("tbl", "k")
	row["v"] = "tampered"
	row2, _, _ := db.Begin().Get("tbl", "k")
	if row2["v"] != "1" {
		t.Fatal("Get exposed internal row")
	}
}

func TestMetering(t *testing.T) {
	m := billing.NewMeter()
	db := New(simclock.Real{}, m)
	must(t, db.CreateTable("tbl", "acme"))
	tx := db.Begin()
	must(t, tx.Put("tbl", "k", Row{"v": "1"}))
	must(t, tx.Commit())
	_, _, _ = db.Begin().Get("tbl", "k")
	if m.Units("acme", billing.ResDBWriteUnits) != 1 {
		t.Fatalf("write units = %v", m.Units("acme", billing.ResDBWriteUnits))
	}
	if m.Units("acme", billing.ResDBReadUnits) != 1 {
		t.Fatalf("read units = %v", m.Units("acme", billing.ResDBReadUnits))
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
