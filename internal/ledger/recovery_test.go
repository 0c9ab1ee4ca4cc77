package ledger

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// TestEnsembleChangeOnBookieCrash is the tentpole recovery guarantee: a
// bookie crash mid-ledger no longer kills the writer with ErrQuorumLost —
// the dead bookie is swapped for a spare, the append completes, and the
// ledger prefix is re-replicated onto the replacement.
func TestEnsembleChangeOnBookieCrash(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := NewSystem(v, coord.NewStore(v))
	for i := 0; i < 5; i++ {
		s.AddBookie(NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	reg := obs.New(v)
	s.SetObs(reg)

	var w *Writer
	v.Run(func() {
		var err error
		w, err = s.CreateLedger(3, 2, 2)
		must(t, err)
		for i := 0; i < 8; i++ {
			_, err := w.Append([]byte(fmt.Sprintf("pre-%d", i)))
			must(t, err)
		}
		// Crash an ensemble member; the next append must still commit.
		b, _ := s.Bookie(w.meta.Ensemble[1])
		b.SetDown(true)
		for i := 0; i < 8; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
				t.Errorf("append after crash: %v", err)
				return
			}
		}
		must(t, w.Close())
	})
	// Run has drained stragglers: background re-replication is complete.
	for _, id := range w.meta.Ensemble {
		if id == "bookie-1" {
			t.Fatalf("crashed bookie still in ensemble %v", w.meta.Ensemble)
		}
	}
	// Every entry must be readable with the crashed bookie still down.
	v.Run(func() {
		r, err := s.OpenReader(w.ID())
		must(t, err)
		all, err := r.readAll()
		must(t, err)
		if len(all) != 16 {
			t.Fatalf("read %d entries, want 16", len(all))
		}
	})
	if got := reg.CounterValue("ledger.recoveries"); got < 1 {
		t.Fatalf("ledger.recoveries = %d, want >= 1", got)
	}
	// Entries 0..8 whose stripe hits the replaced position: e%3 ∈ {0,1}.
	if got := reg.CounterValue("ledger.rereplicated.entries"); got < 6 {
		t.Fatalf("ledger.rereplicated.entries = %d, want >= 6 (prefix copied)", got)
	}
}

// TestEnsembleChangeMidBatch crashes a bookie between two batch appends and
// requires the second batch to commit via ensemble replacement.
func TestEnsembleChangeMidBatch(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := NewSystem(v, coord.NewStore(v))
	for i := 0; i < 5; i++ {
		s.AddBookie(NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	v.Run(func() {
		w, err := s.CreateLedger(3, 3, 2)
		must(t, err)
		if _, err := w.AppendBatch([][]byte{[]byte("a"), []byte("b")}); err != nil {
			t.Error(err)
			return
		}
		b, _ := s.Bookie(w.meta.Ensemble[0])
		b.SetDown(true)
		if _, err := w.AppendBatch([][]byte{[]byte("c"), []byte("d")}); err != nil {
			t.Errorf("batch after crash: %v", err)
			return
		}
		must(t, w.Close())
		r, err := s.OpenReader(w.ID())
		must(t, err)
		all, err := r.readAll()
		must(t, err)
		if len(all) != 4 {
			t.Errorf("read %d entries, want 4", len(all))
		}
	})
}

// TestEnsembleChangeExhaustsSpares pins the degraded path: with no spare
// bookies left the writer still reports ErrQuorumLost.
func TestEnsembleChangeExhaustsSpares(t *testing.T) {
	s := newSystem(3) // ensemble uses all three: no spares
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	for i := 0; i < 2; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		b.SetDown(true)
	}
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
}

// TestDropNextAbsorbedByRetry: a single injected RPC drop is healed by the
// writer's immediate retry without an ensemble change.
func TestDropNextAbsorbedByRetry(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	b, _ := s.Bookie(w.meta.Ensemble[0])
	b.DropNext(1)
	before := append([]string(nil), w.meta.Ensemble...)
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatalf("append with one drop: %v", err)
	}
	for i, id := range w.meta.Ensemble {
		if id != before[i] {
			t.Fatalf("ensemble changed on a transient drop: %v -> %v", before, w.meta.Ensemble)
		}
	}
}

// TestSetSlowGatesAppend: an injected straggler bounds the append round trip.
func TestSetSlowGatesAppend(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := NewSystem(v, coord.NewStore(v))
	for i := 0; i < 3; i++ {
		s.AddBookie(NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	s.AppendLatency = time.Millisecond
	v.Run(func() {
		w, err := s.CreateLedger(3, 2, 2)
		must(t, err)
		b, _ := s.Bookie(w.meta.Ensemble[0])
		b.SetSlow(5 * time.Millisecond)
		start := v.Now()
		if _, err := w.Append([]byte("x")); err != nil {
			t.Error(err)
			return
		}
		if got := v.Now().Sub(start); got != 6*time.Millisecond {
			t.Errorf("straggler append cost %v, want 6ms", got)
		}
		b.SetSlow(0)
	})
}

// TestWriterReadsItsOwnOpenLedger: the one writer of an open ledger can read
// back what it has appended — up to the last entry it had acknowledged, and
// not past it — without closing the ledger; from the second replica when the
// first is down; and, through a fresh reader, after an ensemble change, both
// while the replacement bookie is still empty and once it has been filled.
func TestWriterReadsItsOwnOpenLedger(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := NewSystem(v, coord.NewStore(v))
	for i := 0; i < 4; i++ {
		s.AddBookie(NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	entry := func(i int) string { return fmt.Sprintf("entry-%d", i) }
	readAll := func(r *Reader, n int) {
		t.Helper()
		if r.LastEntry() != int64(n-1) {
			t.Fatalf("LastEntry = %d, want %d", r.LastEntry(), n-1)
		}
		for i := 0; i < n; i++ {
			got, err := r.Read(int64(i))
			if err != nil || string(got) != entry(i) {
				t.Fatalf("Read(%d) = %q, %v; want %q", i, got, err, entry(i))
			}
		}
	}
	var w *Writer
	v.Run(func() {
		var err error
		w, err = s.CreateLedger(3, 2, 2)
		must(t, err)
		if _, err := w.Reader().Read(0); !errors.Is(err, ErrNoEntry) {
			t.Fatalf("Read(0) of an empty open ledger: err = %v, want ErrNoEntry", err)
		}
		for i := 0; i < 9; i++ {
			_, err := w.Append([]byte(entry(i)))
			must(t, err)
		}
		r := w.Reader()
		readAll(r, 9)
		for _, id := range []int64{9, 10, -1} {
			if _, err := r.Read(id); !errors.Is(err, ErrNoEntry) {
				t.Fatalf("Read(%d) with next = 9: err = %v, want ErrNoEntry", id, err)
			}
		}
		// A snapshot: it does not see a later append, a fresh reader does.
		_, err = w.Append([]byte(entry(9)))
		must(t, err)
		if _, err := r.Read(9); !errors.Is(err, ErrNoEntry) {
			t.Fatalf("stale reader saw a later append: err = %v", err)
		}
		if _, err := s.OpenReader(w.ID()); !errors.Is(err, ErrNotClosed) {
			t.Fatalf("the ledger must still be open: OpenReader err = %v", err)
		}

		// First replica of entries 0, 3, 6, 9 down: the second serves them.
		down, _ := s.Bookie(w.meta.Ensemble[0])
		down.SetDown(true)
		readAll(w.Reader(), 10)

		// The next append striped onto the dead bookie (entry 11) swaps it for
		// the spare. A reader taken now meets the replacement before
		// re-replication has filled it (that runs on its own goroutine) and
		// falls through to the live replica.
		for i := 10; i < 12; i++ {
			_, err = w.Append([]byte(entry(i)))
			must(t, err)
		}
		if w.meta.Ensemble[0] == down.ID {
			t.Fatalf("ensemble unchanged after an append with %s down: %v", down.ID, w.meta.Ensemble)
		}
		readAll(w.Reader(), 12)
		readAll(r, 9) // and the reader from before the change still works
	})
	// Run has drained the re-replication; the ledger is still open.
	v.Run(func() {
		readAll(w.Reader(), 12)
		_, err := w.Append([]byte(entry(12)))
		must(t, err)
		readAll(w.Reader(), 13)
	})
}

// TestRecoverProbesWithoutCopying: Recover learns how far a crashed writer's
// ledger is readable by reading each entry from the replicas, at a read's
// modelled cost but without copying it, so recovering a ledger of 1000
// entries of 256 B allocates a handful of times for the fence and the sealed
// metadata, not once per entry (1017 allocations and 256 KB when each probe
// took a private copy).
func TestRecoverProbesWithoutCopying(t *testing.T) {
	const entries, budget = 1000, 20
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	data := make([]byte, 256)
	for i := 0; i < entries; i++ {
		_, err := w.Append(data)
		must(t, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := s.Recover(w.ID())
	runtime.ReadMemStats(&after)
	must(t, err)
	if r.LastEntry() != entries-1 {
		t.Fatalf("Recover ends the ledger at %d, want %d", r.LastEntry(), entries-1)
	}
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("recovering %d entries of %d B allocated %d times, %d B", entries, len(data), allocs, bytes)
	if allocs > budget {
		t.Fatalf("recovering %d entries allocated %d times, want <= %d", entries, allocs, budget)
	}
}
