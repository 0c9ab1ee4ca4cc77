package ledger

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/simclock"
)

func TestAppendBatchOrderAndIDs(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	// Mix single appends and batches; ids must stay contiguous.
	if _, err := w.Append([]byte("solo-0")); err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 5)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("batch-%d", i))
	}
	first, err := w.AppendBatch(batch)
	must(t, err)
	if first != 1 {
		t.Fatalf("batch first id = %d, want 1", first)
	}
	id, err := w.Append([]byte("solo-1"))
	must(t, err)
	if id != 6 {
		t.Fatalf("post-batch id = %d, want 6", id)
	}
	must(t, w.Close())
	r, err := s.OpenReader(w.ID())
	must(t, err)
	all, err := r.readAll()
	must(t, err)
	want := []string{"solo-0", "batch-0", "batch-1", "batch-2", "batch-3", "batch-4", "solo-1"}
	if len(all) != len(want) {
		t.Fatalf("got %d entries, want %d", len(all), len(want))
	}
	for i, e := range all {
		if string(e) != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e, want[i])
		}
	}
}

func TestAppendBatchEmptyAndClosed(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	if first, err := w.AppendBatch(nil); err != nil || first != 0 {
		t.Fatalf("empty batch = (%d, %v)", first, err)
	}
	must(t, w.Close())
	if _, err := w.AppendBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("err = %v, want ErrWriterClosed", err)
	}
}

// TestAppendBatchGroupCommitLatency is the point of batching: the modelled
// durability round trip is paid once per batch, not once per entry.
func TestAppendBatchGroupCommitLatency(t *testing.T) {
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
		start := v.Now()
		batch := make([][]byte, 10)
		for i := range batch {
			batch[i] = []byte("x")
		}
		if _, err := w.AppendBatch(batch); err != nil {
			t.Error(err)
			return
		}
		if got := v.Now().Sub(start); got != time.Millisecond {
			t.Errorf("batch of 10 cost %v, want one AppendLatency (1ms)", got)
		}
		start = v.Now()
		for i := 0; i < 10; i++ {
			if _, err := w.Append([]byte("y")); err != nil {
				t.Error(err)
				return
			}
		}
		if got := v.Now().Sub(start); got != 10*time.Millisecond {
			t.Errorf("10 single appends cost %v, want 10ms", got)
		}
	})
}

func TestAppendBatchQuorumLoss(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 3, 3)
	must(t, err)
	b, _ := s.Bookie("bookie-1")
	b.SetDown(true)
	if _, err := w.AppendBatch([][]byte{[]byte("a"), []byte("b")}); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
}

// TestBookieSharesEntryBuffer pins the single-copy contract: replicas of an
// entry share the ledger's one copy of it rather than copying per bookie,
// and reads still hand back a private copy.
func TestBookieSharesEntryBuffer(t *testing.T) {
	s := newSystem(3)
	w, err := s.CreateLedger(3, 3, 3)
	must(t, err)
	data := []byte("immutable")
	id, err := w.Append(data)
	must(t, err)
	var bufs [][]byte
	for i := 0; i < 3; i++ {
		b, _ := s.Bookie(fmt.Sprintf("bookie-%d", i))
		b.mu.Lock()
		bufs = append(bufs, b.entryLocked(w.ledgerID, id).data)
		b.mu.Unlock()
	}
	for i := 1; i < len(bufs); i++ {
		if &bufs[0][0] != &bufs[i][0] {
			t.Fatalf("bookie %d holds a private copy; replicas should share the ledger's copy", i)
		}
	}
	must(t, w.Close())
	r, err := s.OpenReader(w.ID())
	must(t, err)
	got, err := r.Read(id)
	must(t, err)
	if &got[0] == &bufs[0][0] {
		t.Fatal("Read returned the stored buffer; readers must get a copy")
	}
}
