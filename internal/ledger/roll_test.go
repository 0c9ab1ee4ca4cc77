package ledger

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/coord"
)

// TestRollSealsAndContinues: Roll seals the current ledger with its last
// entry, so it opens read-only with every entry; the writer goes on in a
// fresh ledger from entry 0 on the same ensemble, and reads its own new
// ledger only.
func TestRollSealsAndContinues(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	for i := 0; i < 5; i++ {
		_, err := w.Append([]byte(fmt.Sprintf("a%d", i)))
		must(t, err)
	}
	first := w.ID()
	must(t, w.Roll())
	if w.ID() == first {
		t.Fatal("Roll kept the ledger id")
	}
	id, err := w.Append([]byte("b0"))
	must(t, err)
	if id != 0 {
		t.Fatalf("first entry after Roll has id %d, want 0", id)
	}
	r, err := s.OpenReader(first)
	must(t, err)
	if r.LastEntry() != 4 {
		t.Fatalf("sealed ledger's last entry = %d, want 4", r.LastEntry())
	}
	for i := int64(0); i <= 4; i++ {
		data, err := r.Read(i)
		must(t, err)
		if string(data) != fmt.Sprintf("a%d", i) {
			t.Fatalf("sealed entry %d = %q", i, data)
		}
	}
	if cur := w.Reader(); cur.LastEntry() != 0 {
		t.Fatalf("the writer reads back %d entries of its new ledger, want 1", cur.LastEntry()+1)
	}
	if _, err := s.OpenReader(w.ID()); !errors.Is(err, ErrNotClosed) {
		t.Fatalf("the new ledger opened read-only: %v", err)
	}
	md, err := s.loadMeta(w.ID())
	must(t, err)
	if fmt.Sprint(md.Ensemble) != "[bookie-0 bookie-1 bookie-2]" {
		t.Fatalf("new ensemble = %v, want the old one", md.Ensemble)
	}
	must(t, w.Close())
	if err := w.Roll(); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("Roll on a closed writer = %v", err)
	}
}

// TestRollReplacesDeadBookie: with an ensemble member down, the new ledger
// takes live bookies as CreateLedger would; with too few live, Roll fails
// and the writer goes on appending to the ledger it had.
func TestRollReplacesDeadBookie(t *testing.T) {
	s := newSystem(4)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	_, err = w.Append([]byte("x"))
	must(t, err)
	b1, _ := s.Bookie("bookie-1")
	b1.SetDown(true)
	must(t, w.Roll())
	md, err := s.loadMeta(w.ID())
	must(t, err)
	if fmt.Sprint(md.Ensemble) != "[bookie-0 bookie-2 bookie-3]" {
		t.Fatalf("ensemble after a roll past a dead bookie = %v", md.Ensemble)
	}
	b3, _ := s.Bookie("bookie-3")
	b3.SetDown(true)
	before := w.ID()
	if err := w.Roll(); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("Roll with 2 live bookies = %v, want ErrNotEnough", err)
	}
	b3.SetDown(false)
	if id, err := w.Append([]byte("y")); err != nil || w.ID() != before || id != 0 {
		t.Fatalf("append after a failed Roll: id %d on ledger %d (%v), want 0 on %d", id, w.ID(), err, before)
	}
}

// TestRollPresizesIndex: a rolled ledger's entry table, which its bookies
// share, is one allocation sized from the ledger before it (up to a full
// segment), so a roll and a segment's worth of appends cost a handful of
// allocations — a roll's metadata node, the ledger's table and its first
// segment, and per bookie the ledger's store — rather than a run of doubling
// segments (eight segments and their table).
func TestRollPresizesIndex(t *testing.T) {
	const n = 2048
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	entry := []byte("x")
	fill := func() {
		for i := 0; i < n; i++ {
			if _, err := w.Append(entry); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	got := testing.AllocsPerRun(4, func() {
		if err := w.Roll(); err != nil {
			t.Fatal(err)
		}
		fill()
	})
	if got > 10 {
		t.Fatalf("a roll and %d appends took %.0f allocations, want <= 10", n, got)
	}
}

// TestRollFailedSealLeavesWriter: when the old ledger cannot be sealed (its
// metadata node is gone), Roll removes the successor it had created and the
// writer goes on appending to the ledger it had.
func TestRollFailedSealLeavesWriter(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	_, err = w.Append([]byte("x"))
	must(t, err)
	must(t, s.meta.Delete(metaPath(w.ID()), coord.AnyVersion))
	before := w.ID()
	if err := w.Roll(); err == nil {
		t.Fatal("Roll sealed a ledger whose metadata is gone")
	}
	if names, err := s.meta.Children(metaRoot); err != nil || len(names) != 0 {
		t.Fatalf("a failed Roll left ledger metadata %v (%v)", names, err)
	}
	if id, err := w.Append([]byte("y")); err != nil || w.ID() != before || id != 1 {
		t.Fatalf("append after a failed Roll: id %d on ledger %d (%v), want 1 on %d", id, w.ID(), err, before)
	}
}
