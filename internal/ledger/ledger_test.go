package ledger

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/coord"
	"repro/internal/simclock"
)

func newSystem(bookies int) *System {
	s := NewSystem(simclock.Real{}, coord.NewStore(simclock.Real{}))
	for i := 0; i < bookies; i++ {
		s.AddBookie(NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	return s
}

func TestAppendCloseRead(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	for i := 0; i < 10; i++ {
		id, err := w.Append([]byte(fmt.Sprintf("entry-%d", i)))
		must(t, err)
		if id != int64(i) {
			t.Fatalf("entry id = %d, want %d", id, i)
		}
	}
	must(t, w.Close())
	r, err := s.OpenReader(w.ID())
	must(t, err)
	if r.LastEntry() != 9 {
		t.Fatalf("LastEntry = %d", r.LastEntry())
	}
	all, err := r.readAll()
	must(t, err)
	for i, e := range all {
		if string(e) != fmt.Sprintf("entry-%d", i) {
			t.Fatalf("entry %d = %q", i, e)
		}
	}
}

func TestSingleWriterAppendAfterClose(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 1)
	must(t, w.Close())
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("double close err = %v", err)
	}
}

func TestOpenReaderOnOpenLedgerFails(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 2)
	if _, err := s.OpenReader(w.ID()); !errors.Is(err, ErrNotClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuorumConfigValidation(t *testing.T) {
	s := newSystem(3)
	for _, c := range [][3]int{{2, 3, 1}, {3, 2, 3}, {3, 2, 0}} {
		if _, err := s.CreateLedger(c[0], c[1], c[2]); !errors.Is(err, ErrBadQuorum) {
			t.Fatalf("CreateLedger(%v) err = %v", c, err)
		}
	}
	if _, err := s.CreateLedger(5, 3, 2); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("oversized ensemble err = %v", err)
	}
}

func TestReadSurvivesBookieFailure(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 2)
	for i := 0; i < 6; i++ {
		_, err := w.Append([]byte(fmt.Sprintf("e%d", i)))
		must(t, err)
	}
	must(t, w.Close())

	// Kill any single bookie: every entry still readable (writeQuorum=2).
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		b.SetDown(true)
		r, err := s.OpenReader(w.ID())
		must(t, err)
		if _, err := r.readAll(); err != nil {
			t.Fatalf("ReadAll with %s down: %v", b.ID, err)
		}
		b.SetDown(false)
	}
}

func TestAppendFailsWithoutAckQuorum(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 2)
	_, err := w.Append([]byte("ok"))
	must(t, err)
	// Down two bookies: at most one replica can be written.
	for i := 0; i < 2; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		b.SetDown(true)
	}
	if _, err := w.Append([]byte("fail")); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveryFencesAndSeals(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 3, 2)
	for i := 0; i < 5; i++ {
		_, err := w.Append([]byte(fmt.Sprintf("e%d", i)))
		must(t, err)
	}
	// Writer "crashes" (no Close). A new client recovers the ledger.
	r, err := s.Recover(w.ID())
	must(t, err)
	if r.LastEntry() != 4 {
		t.Fatalf("recovered LastEntry = %d, want 4", r.LastEntry())
	}
	// The zombie writer must be fenced out.
	if _, err := w.Append([]byte("zombie")); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie append err = %v", err)
	}
	// Recovery of an already-closed ledger is a plain open.
	r2, err := s.Recover(w.ID())
	must(t, err)
	if r2.LastEntry() != 4 {
		t.Fatalf("re-recover LastEntry = %d", r2.LastEntry())
	}
}

func TestRecoverEmptyLedger(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 2)
	r, err := s.Recover(w.ID())
	must(t, err)
	if r.LastEntry() != -1 {
		t.Fatalf("empty ledger LastEntry = %d, want -1", r.LastEntry())
	}
	if _, err := r.Read(0); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("read on empty = %v", err)
	}
}

func TestDeleteLedger(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 3, 2)
	_, err := w.Append([]byte("x"))
	must(t, err)
	must(t, w.Close())
	total := 0
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		total += b.EntryCount()
	}
	if total != 3 {
		t.Fatalf("replicas before delete = %d, want 3", total)
	}
	must(t, s.DeleteLedger(w.ID()))
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		if b.EntryCount() != 0 {
			t.Fatalf("%s retains entries after delete", b.ID)
		}
	}
	if _, err := s.OpenReader(w.ID()); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("open deleted = %v", err)
	}
	if err := s.DeleteLedger(w.ID()); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestStripingDistributesEntries(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 2)
	for i := 0; i < 30; i++ {
		_, err := w.Append([]byte("x"))
		must(t, err)
	}
	must(t, w.Close())
	// 30 entries × 2 replicas striped over 3 bookies → 20 each.
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		if b.EntryCount() != 20 {
			t.Fatalf("%s holds %d entries, want 20", b.ID, b.EntryCount())
		}
	}
}

func TestAppendLatencyOnVirtualClock(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	s := NewSystem(v, coord.NewStore(v))
	for i := 0; i < 3; i++ {
		s.AddBookie(NewBookie(fmt.Sprintf("b%d", i)))
	}
	s.AppendLatency = 2 * time.Millisecond
	end := v.Run(func() {
		w, err := s.CreateLedger(3, 2, 2)
		must(t, err)
		for i := 0; i < 10; i++ {
			_, err := w.Append([]byte("x"))
			must(t, err)
		}
	})
	if got := end.Sub(simclock.Epoch); got != 20*time.Millisecond {
		t.Fatalf("virtual append time = %v, want 20ms", got)
	}
}

// TestPropertyAckedEntriesSurviveRecovery: for any prefix of appends followed
// by a crash and one bookie failure, every acked entry is recovered. This is
// the core BookKeeper durability invariant.
func TestPropertyAckedEntriesSurviveRecovery(t *testing.T) {
	f := func(nEntries uint8, killIdx uint8) bool {
		n := int(nEntries)%20 + 1
		s := newSystem(3)
		w, err := s.CreateLedger(3, 3, 2)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
				return false
			}
		}
		// Crash the writer and one bookie, then recover.
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", int(killIdx)%3))
		b.SetDown(true)
		r, err := s.Recover(w.ID())
		if err != nil {
			return false
		}
		if r.LastEntry() < int64(n-1) {
			return false // lost an acked entry
		}
		for e := int64(0); e < int64(n); e++ {
			data, err := r.Read(e)
			if err != nil || string(data) != fmt.Sprintf("e%d", e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
