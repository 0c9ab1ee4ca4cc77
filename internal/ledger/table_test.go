package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/blob"
	"repro/internal/coord"
)

// oracleBookie stores entries the way a bookie did before ledgers had entry
// tables: one private map per ledger, nothing shared. Its fault state decides
// whether an add lands, checked in addEntry's order (down, dropped, fenced).
type oracleBookie struct {
	down    bool
	drop    int
	fenced  map[int64]bool
	entries map[int64]map[int64][]byte
}

func (o *oracleBookie) add(ledgerID, e int64, data []byte) bool {
	if o.down {
		return false
	}
	if o.drop > 0 {
		o.drop--
		return false
	}
	if o.fenced[ledgerID] {
		return false
	}
	if o.entries[ledgerID] == nil {
		o.entries[ledgerID] = map[int64][]byte{}
	}
	o.entries[ledgerID][e] = data
	return true
}

// serve is what a read of the entry returns, uncopied: nil when the bookie
// is down or holds no such entry.
func (o *oracleBookie) serve(ledgerID, e int64) []byte {
	if o.down {
		return nil
	}
	return o.entries[ledgerID][e]
}

func (o *oracleBookie) last(ledgerID int64) int64 {
	last := int64(-1)
	for e := range o.entries[ledgerID] {
		last = max(last, e)
	}
	return last
}

func (o *oracleBookie) count() int {
	n := 0
	for _, m := range o.entries {
		n += len(m)
	}
	return n
}

func (o *oracleBookie) deleteLedger(ledgerID int64) {
	delete(o.entries, ledgerID)
	delete(o.fenced, ledgerID)
}

// tableRun is one seeded run of TestEntryTableMatchesPerBookieOracle.
type tableRun struct {
	t      *testing.T
	rng    *rand.Rand
	s      *System
	ids    []string
	oracle map[string]*oracleBookie
	store  *blob.Store
	open   []*Writer       // ledgers the run appends to (not recovered)
	closed []int64         // recovered ledgers, not yet deleted or offloaded
	hi     map[int64]int64 // live ledger -> highest entry id written
	gone   map[int64]int64 // the same, for ledgers dropped since the last check
	nbuf   int
	// copyOf maps an attempt (the oracle's buffer) to the ledger's copy of
	// it that bookies serve, and attemptOf the other way.
	copyOf, attemptOf map[*byte]*byte
}

func (r *tableRun) bookie(id string) *Bookie {
	b, _ := r.s.Bookie(id)
	return b
}

// fresh returns a new buffer, one attempt at an entry: equal bytes never
// mean one attempt here.
func (r *tableRun) fresh(ledgerID, e int64) []byte {
	r.nbuf++
	return []byte(fmt.Sprintf("l%d-e%d-#%d", ledgerID, e, r.nbuf))
}

// add sends one attempt at entry e to the ensemble member at pos, on both
// sides: c, the ledger's copy of it, to the bookie and data to the oracle.
func (r *tableRun) add(w *Writer, pos int, e int64, c entryCopy, data []byte) {
	id := w.meta.Ensemble[pos]
	err := r.bookie(id).addEntry(w.table, w.ledgerID, e, c)
	if ok := r.oracle[id].add(w.ledgerID, e, data); ok != (err == nil) {
		r.t.Fatalf("add of ledger %d entry %d on %s: table %v, oracle ok=%v", w.ledgerID, e, id, err, ok)
	}
	r.hi[w.ledgerID] = max(r.hi[w.ledgerID], e)
}

// fence fences a ledger on one bookie on both sides and compares what each
// reports.
func (r *tableRun) fence(ledgerID int64, id string) (int64, bool) {
	got, err := r.bookie(id).fence(ledgerID)
	o := r.oracle[id]
	if o.down {
		if err == nil {
			r.t.Fatalf("fence of ledger %d on down %s succeeded", ledgerID, id)
		}
		return -1, false
	}
	if o.fenced == nil {
		o.fenced = map[int64]bool{}
	}
	o.fenced[ledgerID] = true
	if want := o.last(ledgerID); err != nil || got != want {
		r.t.Fatalf("fence of ledger %d on %s = %d, %v; oracle %d", ledgerID, id, got, err, want)
	}
	return got, true
}

// readable reports whether a Reader over md would find entry e (oracle).
func (r *tableRun) readable(ledgerID int64, md metadata, e int64) bool {
	for j := 0; j < md.WriteQuorum; j++ {
		if r.oracle[md.Ensemble[int(e+int64(j))%len(md.Ensemble)]].serve(ledgerID, e) != nil {
			return true
		}
	}
	return false
}

// rereplicate is System.rereplicate on the oracle: the same source order, and
// the replacement stores the buffer it was handed.
func (r *tableRun) rereplicate(ledgerID int64, md metadata, replaced map[int]string, upto int64) int {
	copied := 0
	for e := int64(0); e < upto; e++ {
		for j := 0; j < md.WriteQuorum; j++ {
			pos := int((e + int64(j)) % int64(len(md.Ensemble)))
			old, ok := replaced[pos]
			if !ok {
				continue
			}
			var data []byte
			for k := 0; k < md.WriteQuorum && data == nil; k++ {
				if p := int((e + int64(k)) % int64(len(md.Ensemble))); p != pos {
					data = r.oracle[md.Ensemble[p]].serve(ledgerID, e)
				}
			}
			if data == nil {
				data = r.oracle[old].serve(ledgerID, e)
			}
			if data != nil && r.oracle[md.Ensemble[pos]].add(ledgerID, e, data) {
				copied++
			}
		}
	}
	return copied
}

func (r *tableRun) forget(ledgerID int64) {
	for _, o := range r.oracle {
		o.deleteLedger(ledgerID)
	}
	for i, id := range r.closed {
		if id == ledgerID {
			r.closed = append(r.closed[:i], r.closed[i+1:]...)
			break
		}
	}
	r.gone[ledgerID] = r.hi[ledgerID]
	delete(r.hi, ledgerID)
}

// step applies one random operation to the system and the oracle.
func (r *tableRun) step() {
	t, rng := r.t, r.rng
	switch op := rng.Intn(20); {
	case op < 1 || len(r.open) == 0: // create
		if len(r.open) >= 3 {
			return
		}
		w, err := r.s.CreateLedger(3, 2+rng.Intn(2), 1)
		if errors.Is(err, ErrNotEnough) {
			return
		}
		must(t, err)
		if rng.Intn(4) == 0 {
			w.table.members = maxMembers // every bookie of this ledger is past the index's bits
		}
		r.open = append(r.open, w)
		r.hi[w.ledgerID] = -1
	case op < 8: // append
		w := r.open[rng.Intn(len(r.open))]
		data := r.fresh(w.ledgerID, w.next)
		c := w.table.add(w.next, data, w.LedgerEntries)
		for j := 0; j < w.meta.WriteQuorum; j++ {
			r.add(w, int((w.next+int64(j))%int64(len(w.meta.Ensemble))), w.next, c, data)
		}
		w.next++
	case op < 11: // a failed append retried at the same id, in a fresh buffer
		w := r.open[rng.Intn(len(r.open))]
		if w.next == 0 {
			return
		}
		e := w.next - 1
		data := r.fresh(w.ledgerID, e)
		c := w.table.add(e, data, w.LedgerEntries)
		for j := 0; j < w.meta.WriteQuorum; j++ {
			if rng.Intn(3) > 0 {
				r.add(w, int((e+int64(j))%int64(len(w.meta.Ensemble))), e, c, data)
			}
		}
	case op < 12: // DropNext
		id := r.ids[rng.Intn(len(r.ids))]
		n := 1 + rng.Intn(2)
		r.bookie(id).DropNext(n)
		r.oracle[id].drop = n
	case op < 14: // SetDown, SetDown(false)
		id := r.ids[rng.Intn(len(r.ids))]
		down := rng.Intn(2) == 0
		r.bookie(id).SetDown(down)
		r.oracle[id].down = down
	case op < 16: // ensemble change with rereplication
		w := r.open[rng.Intn(len(r.open))]
		pos := rng.Intn(len(w.meta.Ensemble))
		var spares []string
		for _, id := range r.ids {
			in := false
			for _, m := range w.meta.Ensemble {
				in = in || m == id
			}
			if !in {
				spares = append(spares, id)
			}
		}
		md := w.meta
		md.Ensemble = append([]string(nil), md.Ensemble...)
		replaced := map[int]string{pos: md.Ensemble[pos]}
		md.Ensemble[pos] = spares[rng.Intn(len(spares))]
		got := r.s.rereplicate(w.table, w.ledgerID, md, replaced, w.next)
		if want := r.rereplicate(w.ledgerID, md, replaced, w.next); got != want {
			t.Fatalf("rereplicating ledger %d onto %s stored %d entries, oracle %d", w.ledgerID, md.Ensemble[pos], got, want)
		}
		w.meta = md
		must(t, w.saveMeta())
	case op < 17: // fence one bookie
		w := r.open[rng.Intn(len(r.open))]
		r.fence(w.ledgerID, r.ids[rng.Intn(len(r.ids))])
	case op < 18: // Recover
		i := rng.Intn(len(r.open))
		w := r.open[i]
		maxSeen, reachable := int64(-1), 0
		for _, id := range w.meta.Ensemble {
			if last, ok := r.fence(w.ledgerID, id); ok {
				maxSeen, reachable = max(maxSeen, last), reachable+1
			}
		}
		rd, err := r.s.Recover(w.ledgerID)
		if reachable == 0 {
			if err == nil {
				t.Fatalf("Recover of ledger %d with no reachable bookie succeeded", w.ledgerID)
			}
			return
		}
		must(t, err)
		want := int64(-1)
		for e := int64(0); e <= maxSeen && r.readable(w.ledgerID, w.meta, e); e++ {
			want = e
		}
		if rd.LastEntry() != want {
			t.Fatalf("Recover of ledger %d ends at %d, oracle %d", w.ledgerID, rd.LastEntry(), want)
		}
		r.open = append(r.open[:i], r.open[i+1:]...)
		r.closed = append(r.closed, w.ledgerID)
	case op < 19: // DeleteLedger
		var id int64
		if len(r.closed) > 0 && rng.Intn(2) == 0 {
			id = r.closed[rng.Intn(len(r.closed))]
		} else {
			i := rng.Intn(len(r.open))
			id = r.open[i].ledgerID
			r.open = append(r.open[:i], r.open[i+1:]...)
		}
		must(t, r.s.DeleteLedger(id))
		r.forget(id)
	default: // Offload
		if len(r.closed) == 0 {
			return
		}
		id := r.closed[rng.Intn(len(r.closed))]
		md, err := r.s.loadMeta(id)
		must(t, err)
		want := true
		for e := int64(0); e <= md.LastEntry; e++ {
			want = want && r.readable(id, md, e)
		}
		if err := r.s.Offload(id, r.store, "tier"); (err == nil) != want {
			t.Fatalf("Offload of ledger %d = %v, oracle readable=%v", id, err, want)
		}
		if want {
			r.forget(id)
		}
	}
}

// check compares every bookie with its oracle: reads, which copy it stores,
// and the entry count; and the system holds a table per live ledger.
func (r *tableRun) check(step int) {
	t := r.t
	for _, id := range r.ids {
		b, o := r.bookie(id), r.oracle[id]
		if got, want := b.EntryCount(), o.count(); got != want {
			t.Fatalf("step %d: %s counts %d entries, oracle %d", step, id, got, want)
		}
		for _, ledgers := range []map[int64]int64{r.hi, r.gone} {
			for l, hi := range ledgers {
				r.compare(step, b, o, l, hi)
			}
		}
	}
	clear(r.gone)
	live := len(r.open) + len(r.closed)
	r.s.mu.Lock()
	tables := len(r.s.tables)
	r.s.mu.Unlock()
	if tables != live {
		t.Fatalf("step %d: the system holds %d entry tables for %d live ledgers", step, tables, live)
	}
}

// compare checks one bookie's entries [-1, hi+1] of a ledger against its
// oracle. Bookies holding one attempt serve one stored copy; a divergent
// attempt is another copy.
func (r *tableRun) compare(step int, b *Bookie, o *oracleBookie, l, hi int64) {
	t := r.t
	for e := int64(-1); e <= hi+1; e++ {
		got, err := b.storedEntry(l, e)
		want := o.serve(l, e)
		if (err == nil) != (want != nil) || !bytes.Equal(got.data, want) {
			t.Fatalf("step %d: %s reads ledger %d entry %d as %q (%v), oracle %q", step, b.ID, l, e, got.data, err, want)
		}
		b.mu.Lock()
		buf := b.entryLocked(l, e).data
		b.mu.Unlock()
		held := o.entries[l][e]
		if (buf == nil) != (held == nil) {
			t.Fatalf("step %d: %s stores ledger %d entry %d as %q, oracle %q", step, b.ID, l, e, buf, held)
		}
		if buf == nil {
			continue
		}
		if c, ok := r.copyOf[&held[0]]; ok && c != &buf[0] {
			t.Fatalf("step %d: %s stores ledger %d entry %d in another copy than other bookies holding that attempt", step, b.ID, l, e)
		}
		if a, ok := r.attemptOf[&buf[0]]; ok && a != &held[0] {
			t.Fatalf("step %d: %s stores ledger %d entry %d in the copy of another attempt", step, b.ID, l, e)
		}
		r.copyOf[&held[0]], r.attemptOf[&buf[0]] = &buf[0], &held[0]
	}
}

// TestEntryTableMatchesPerBookieOracle drives seeded random appends, failed
// appends retried at the same id in a fresh buffer, dropped and crashed
// bookies, ensemble changes with rereplication, fencing, Recover,
// DeleteLedger and Offload against the bookies and against an oracle that
// keeps one private map per bookie per ledger. Every bookie must serve the
// same bytes, count the same entries and fence at the same last entry as its
// oracle, and bookies holding one attempt must serve one stored copy of it,
// another attempt's copy being another, whether the ledger's entries sit in the
// shared index or, past 8 members or after a divergent rewrite, in a
// bookie's own map.
func TestEntryTableMatchesPerBookieOracle(t *testing.T) {
	_, store := tieredSystem(t)
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := &tableRun{t: t, rng: rand.New(rand.NewSource(seed)), s: newSystem(6), oracle: map[string]*oracleBookie{},
				store: store, hi: map[int64]int64{}, gone: map[int64]int64{},
				copyOf: map[*byte]*byte{}, attemptOf: map[*byte]*byte{}}
			r.ids = r.s.BookieIDs()
			for _, id := range r.ids {
				r.oracle[id] = &oracleBookie{entries: map[int64]map[int64][]byte{}}
			}
			for i := 0; i < 300; i++ {
				r.step()
				r.check(i)
			}
		})
	}
}

// tableIDs lists the ledgers the system holds entry tables for.
func tableIDs(s *System) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []int64
	for id := range s.tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestEntryTablesFollowLedgers: the system holds an entry table for exactly
// the ledgers whose entries are on the bookies — a table comes with a
// ledger, including one a roll opens, and goes when the ledger is deleted or
// offloaded, or when the roll that opened it fails.
func TestEntryTablesFollowLedgers(t *testing.T) {
	s, store := tieredSystem(t)
	want := func(ids ...int64) {
		t.Helper()
		if got := tableIDs(s); fmt.Sprint(got) != fmt.Sprint(ids) {
			t.Fatalf("entry tables for ledgers %v, want %v", got, ids)
		}
	}
	w, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	first := w.ID()
	want(first)
	_, err = w.Append([]byte("a"))
	must(t, err)
	must(t, w.Roll())
	second := w.ID()
	want(first, second)
	_, err = w.Append([]byte("b"))
	must(t, err)

	// A roll whose seal fails (TestRollFailedSealLeavesWriter) leaves no
	// table for the successor it removed.
	w2, err := s.CreateLedger(3, 2, 2)
	must(t, err)
	_, err = w2.Append([]byte("c"))
	must(t, err)
	must(t, s.meta.Delete(metaPath(w2.ID()), coord.AnyVersion))
	if err := w2.Roll(); err == nil {
		t.Fatal("Roll sealed a ledger whose metadata is gone")
	}
	want(first, second, w2.ID())

	must(t, s.DeleteLedger(first))
	want(second, w2.ID())
	must(t, w.Close())
	must(t, s.Offload(second, store, "tier"))
	want(w2.ID())
	if got, err := s.OpenTiered(second, store); err != nil {
		t.Fatal(err)
	} else if data, err := got.Read(0); err != nil || string(data) != "b" {
		t.Fatalf("offloaded entry 0 = %q, %v", data, err)
	}
}
