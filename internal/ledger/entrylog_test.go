package ledger

import (
	"reflect"
	"runtime"
	"testing"
)

// TestEntryIndexLayout pins what a ledger pays per entry beside the entry:
// one index record of at most 8 bytes with no pointer in it, so the
// collector never scans an index segment, over entry bytes the ledger owns
// in chunks it fills to the byte. 10 240 appends of 256 B — exactly 20 full
// chunks — allocate at most 268 B each: the entry, its record and the
// index's segments (≈294 B when the caller allocated each entry and the
// index kept a 24 B slice header and a holder mask for it).
func TestEntryIndexLayout(t *testing.T) {
	typ := reflect.TypeOf(entryRef(0))
	if typ.Size() > 8 {
		t.Errorf("an index record is %d bytes, want <= 8", typ.Size())
	}
	switch typ.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	default:
		t.Errorf("an index record is a %s: it must hold no pointer", typ.Kind())
	}

	const appends, size, budget = 10240, 256, 268
	s := newSystem(3)
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	data := make([]byte, size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if _, err := w.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := len(w.table.chunks); n != appends*size/chunkSize {
		t.Fatalf("%d appends of %d B filled %d chunks, want %d", appends, size, n, appends*size/chunkSize)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / appends
	t.Logf("an append of %d B allocates %.1f B", size, got)
	if got > budget {
		t.Fatalf("an append of %d B allocates %.1f B, want <= %d", size, got, budget)
	}
}
