package ledger

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/blob"
	"repro/internal/simclock"
)

func tieredSystem(t *testing.T) (*System, *blob.Store) {
	t.Helper()
	s := newSystem(3)
	store := blob.New(simclock.Real{}, nil, blob.LatencyModel{})
	if err := store.CreateBucket("tier", "t"); err != nil {
		t.Fatal(err)
	}
	return s, store
}

func TestOffloadMovesEntriesToColdTier(t *testing.T) {
	s, store := tieredSystem(t)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	for i := 0; i < 8; i++ {
		_, err := w.Append([]byte(fmt.Sprintf("e%d", i)))
		must(t, err)
	}
	must(t, w.Close())
	must(t, s.Offload(w.ID(), store, "tier"))

	// Bookies are empty: space reclaimed.
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		if b.EntryCount() != 0 {
			t.Fatalf("%s still holds entries after offload", b.ID)
		}
	}
	// Tiered reads return the exact entries.
	r, err := s.OpenTiered(w.ID(), store)
	must(t, err)
	for i := int64(0); i < 8; i++ {
		data, err := r.Read(i)
		must(t, err)
		if string(data) != fmt.Sprintf("e%d", i) {
			t.Fatalf("entry %d = %q", i, data)
		}
	}
	if _, err := r.Read(8); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestOffloadRequiresClosed(t *testing.T) {
	s, store := tieredSystem(t)
	w, _ := s.CreateLedger(3, 2, 2)
	if err := s.Offload(w.ID(), store, "tier"); !errors.Is(err, ErrNotClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenTieredOnHotLedger(t *testing.T) {
	s, store := tieredSystem(t)
	w, _ := s.CreateLedger(3, 2, 2)
	_, err := w.Append([]byte("hot"))
	must(t, err)
	must(t, w.Close())
	// The cold-tier fields are absent from a hot ledger's metadata: version,
	// closed, quorums 2/2, three bookie ids, last entry 0, and nothing after.
	raw, _, err := s.meta.Get(metaPath(w.ID()))
	must(t, err)
	want := "\x01\x01\x02\x02\x03" + "\x08bookie-0\x08bookie-1\x08bookie-2" + "\x00\x00\x00\x00\x00\x00\x00\x00"
	if string(raw) != want {
		t.Fatalf("metadata = %q, want %q", raw, want)
	}
	r, err := s.OpenTiered(w.ID(), store)
	must(t, err)
	data, err := r.Read(0)
	must(t, err)
	if string(data) != "hot" {
		t.Fatalf("data = %q", data)
	}
}

func TestOffloadSurvivesAllBookiesDown(t *testing.T) {
	// The point of tiered storage: once offloaded, the data no longer
	// depends on the bookie ensemble at all.
	s, store := tieredSystem(t)
	w, _ := s.CreateLedger(3, 2, 2)
	_, err := w.Append([]byte("precious"))
	must(t, err)
	must(t, w.Close())
	must(t, s.Offload(w.ID(), store, "tier"))
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		b.SetDown(true)
	}
	r, err := s.OpenTiered(w.ID(), store)
	must(t, err)
	data, err := r.Read(0)
	must(t, err)
	if string(data) != "precious" {
		t.Fatalf("data = %q", data)
	}
}

func TestOffloadUnknownLedger(t *testing.T) {
	s, store := tieredSystem(t)
	if err := s.Offload(999, store, "tier"); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.OpenTiered(999, store); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoverWithNoReachableBookies(t *testing.T) {
	s := newSystem(3)
	w, _ := s.CreateLedger(3, 2, 2)
	_, err := w.Append([]byte("x"))
	must(t, err)
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		b.SetDown(true)
	}
	if _, err := s.Recover(w.ID()); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("recover with no bookies err = %v", err)
	}
}

func TestDeleteAfterOffloadRemovesMetadata(t *testing.T) {
	s, store := tieredSystem(t)
	w, _ := s.CreateLedger(3, 2, 2)
	_, err := w.Append([]byte("x"))
	must(t, err)
	must(t, w.Close())
	must(t, s.Offload(w.ID(), store, "tier"))
	must(t, s.DeleteLedger(w.ID()))
	if _, err := s.OpenTiered(w.ID(), store); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("open after delete err = %v", err)
	}
}

func TestOffloadIdempotentMetadata(t *testing.T) {
	// Offloading twice re-uploads but must not corrupt reads.
	s, store := tieredSystem(t)
	w, _ := s.CreateLedger(3, 2, 2)
	_, err := w.Append([]byte("once"))
	must(t, err)
	must(t, w.Close())
	must(t, s.Offload(w.ID(), store, "tier"))
	// Second offload reads via the (now empty) bookie path and must fail
	// cleanly rather than write an empty object over good data.
	if err := s.Offload(w.ID(), store, "tier"); err == nil {
		// If it succeeded it must still be readable.
		r, err := s.OpenTiered(w.ID(), store)
		must(t, err)
		data, err := r.Read(0)
		must(t, err)
		if string(data) != "once" {
			t.Fatalf("double offload corrupted data: %q", data)
		}
	}
}
