package kvdb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

// TestModelEquivalence drives the database with a random committed-operation
// sequence and checks it stays equivalent to a plain map — the model-based
// correctness test for the MVCC engine's happy path.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := New(simclock.Real{}, nil)
		if err := db.CreateTable("t", "x"); err != nil {
			return false
		}
		model := map[string]string{}
		for op := 0; op < 200; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(20))
			tx := db.Begin()
			switch rng.Intn(2) {
			case 0: // put
				val := fmt.Sprintf("v%d", rng.Intn(1000))
				if err := tx.Put("t", key, Row{"v": val}); err != nil {
					return false
				}
				if err := tx.Commit(); err != nil {
					return false
				}
				model[key] = val
			case 1: // read & verify
				row, ok, err := tx.Get("t", key)
				if err != nil {
					return false
				}
				want, exists := model[key]
				if ok != exists {
					return false
				}
				if ok && row["v"] != want {
					return false
				}
				tx.Abort()
			}
		}
		// Full scan equivalence.
		rows, err := db.Begin().Scan("t")
		if err != nil || len(rows) != len(model) {
			return false
		}
		for k, want := range model {
			if rows[k]["v"] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotStabilityUnderConcurrentWrites opens a snapshot, then commits
// many writes; the snapshot's reads must be frozen at its begin point.
func TestSnapshotStabilityUnderConcurrentWrites(t *testing.T) {
	db := New(simclock.Real{}, nil)
	if err := db.CreateTable("t", "x"); err != nil {
		t.Fatal(err)
	}
	seed := db.Begin()
	for i := 0; i < 50; i++ {
		if err := seed.Put("t", fmt.Sprintf("k%d", i), Row{"v": "orig"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := db.Begin()
	// 50 later commits mutate every key.
	for i := 0; i < 50; i++ {
		w := db.Begin()
		if err := w.Put("t", fmt.Sprintf("k%d", i), Row{"v": "new"}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		row, ok, err := snap.Get("t", fmt.Sprintf("k%d", i))
		if err != nil || !ok || row["v"] != "orig" {
			t.Fatalf("snapshot drifted at k%d: %v %v %v", i, row, ok, err)
		}
	}
	rows, err := snap.Scan("t")
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range rows {
		if row["v"] != "orig" {
			t.Fatalf("scan drifted at %s", k)
		}
	}
}

// TestFirstCommitterWinsProperty: for any pair of transactions writing the
// same key, exactly one commits.
func TestFirstCommitterWinsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := New(simclock.Real{}, nil)
		if err := db.CreateTable("t", "x"); err != nil {
			return false
		}
		key := fmt.Sprintf("k%d", rng.Intn(4))
		a, b := db.Begin(), db.Begin()
		if a.Put("t", key, Row{"v": "a"}) != nil || b.Put("t", key, Row{"v": "b"}) != nil {
			return false
		}
		errA := a.Commit()
		errB := b.Commit()
		// A committed first, so A must win and B must abort.
		return errA == nil && errB != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestVersionGCSafety: heavy rewrite churn must not corrupt latest values.
func TestVersionChurn(t *testing.T) {
	db := New(simclock.Real{}, nil)
	if err := db.CreateTable("t", "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tx := db.Begin()
		if err := tx.Put("t", "hot", Row{"v": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	row, ok, err := db.Begin().Get("t", "hot")
	if err != nil || !ok || row["v"] != "499" {
		t.Fatalf("final = %v %v %v", row, ok, err)
	}
	if db.ts != 500 {
		t.Fatalf("commit ts = %d", db.ts)
	}
}
func TestVacuumReclaimsHistory(t *testing.T) {
	db := New(simclock.Real{}, nil)
	if err := db.CreateTable("t", "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tx := db.Begin()
		if err := tx.Put("t", "k", Row{"v": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	horizon := db.ts
	if dropped := db.Vacuum(horizon); dropped != 9 {
		t.Fatalf("dropped = %d, want the 9 stale versions", dropped)
	}
	// Current reads unchanged.
	row, ok, err := db.Begin().Get("t", "k")
	if err != nil || !ok || row["v"] != "9" {
		t.Fatalf("post-vacuum read = %v %v %v", row, ok, err)
	}
	// Vacuum is idempotent.
	if again := db.Vacuum(horizon); again != 0 {
		t.Fatalf("second vacuum dropped %d", again)
	}
}

func TestVacuumPreservesNewerSnapshots(t *testing.T) {
	db := New(simclock.Real{}, nil)
	if err := db.CreateTable("t", "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := db.Begin()
		if err := tx.Put("t", "k", Row{"v": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	horizon := db.ts   // = 5
	snap := db.Begin() // reads at 5
	// Two more commits beyond the horizon.
	for i := 5; i < 7; i++ {
		tx := db.Begin()
		if err := tx.Put("t", "k", Row{"v": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.Vacuum(horizon)
	// The snapshot at the horizon still reads its version.
	row, ok, err := snap.Get("t", "k")
	if err != nil || !ok || row["v"] != "4" {
		t.Fatalf("horizon snapshot read = %v %v %v", row, ok, err)
	}
	// Latest still newest.
	row, _, _ = db.Begin().Get("t", "k")
	if row["v"] != "6" {
		t.Fatalf("latest = %v", row)
	}
}
