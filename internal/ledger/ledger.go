// Package ledger implements the Apache BookKeeper-style distributed
// write-ahead log of §4.3 (Figure 1): storage nodes ("bookies") holding
// replicated entries of append-only, single-writer logs ("ledgers").
//
// Ledger semantics follow the paper's description exactly: a process can
// create a ledger, append entries and close it; after close — explicit or
// because the writer crashed — it can only be opened read-only; when its
// entries are no longer needed the whole ledger is deleted. Crash recovery
// fences the ensemble so the dead writer cannot add entries, then finds the
// last entry that reached the ack quorum.
//
// A writer that keeps one log as a run of ledgers — a topic does — rolls it
// (Writer.Roll): the current ledger is sealed as Close would seal it and the
// same Writer continues in a fresh one, so each sealed ledger can be deleted
// on its own once nobody needs it.
//
// A ledger's entries are stored once however many bookies hold them: the
// System keeps one entry table per ledger, whose slot for an entry holds the
// writer's buffer and a bitmask of the bookies that store it.
//
// Ledger metadata (ensemble, quorum sizes, state) lives in the coordination
// service, as it does in the real system, in a fixed binary record (meta.go).
package ledger

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/seglog"
	"repro/internal/simclock"
)

// Errors returned by the ledger system.
var (
	ErrNoLedger     = errors.New("ledger: ledger does not exist")
	ErrNoEntry      = errors.New("ledger: entry does not exist")
	ErrNotClosed    = errors.New("ledger: ledger is still open")
	ErrFenced       = errors.New("ledger: ledger is fenced")
	ErrBookieDown   = errors.New("ledger: bookie is down")
	ErrNotEnough    = errors.New("ledger: not enough live bookies")
	ErrQuorumLost   = errors.New("ledger: ack quorum unreachable")
	ErrBadQuorum    = errors.New("ledger: invalid quorum configuration")
	ErrWriterClosed = errors.New("ledger: writer already closed")
	ErrDropped      = errors.New("ledger: replication write dropped")
)

// entryTable is one ledger's entries, shared by its bookies as they share
// each entry's buffer (see the Bookie contract). Entry IDs are dense and
// ascending, so it is a log addressed by entry ID whose slots, once written,
// are never copied again (DESIGN.md §10). The System makes a ledger's table
// with the ledger and drops it with the ledger's entries; its lock is taken
// under a Bookie's, never the other way round.
type entryTable struct {
	mu      sync.Mutex
	slots   seglog.Log[entrySlot] // indexed by entry ID
	members int                   // bookies given a bit so far
}

// entrySlot is one entry and the bookies that store that buffer as it: bit
// i is the i-th bookie to hold any entry of the ledger.
type entrySlot struct {
	data []byte
	held uint64
}

// ledgerStore is one bookie's part in one ledger.
type ledgerStore struct {
	table  *entryTable // nil until the bookie stores an entry of the ledger
	bit    uint64      // the bookie's bit in table; 0 for a 65th member
	count  int         // entries this bookie stores
	last   int64       // highest entry id seen (-1 if none)
	fenced bool
	// own holds the entries this bookie stores apart from the table: one it
	// was sent a different buffer for than another bookie still holds (a
	// failed append retried at the same id), or all of them for a bookie
	// without a bit. Nil until the first.
	own map[int64][]byte
}

// store makes data the bookie's entry e and reports whether it held no
// entry e before. Called with the bookie's lock held.
func (ls *ledgerStore) store(t *entryTable, e int64, data []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ls.table == nil {
		ls.table = t
		if t.members < 64 {
			ls.bit = 1 << t.members
			t.members++
		}
	}
	_, had := ls.own[e]
	delete(ls.own, e)
	if ls.bit == 0 {
		ls.keep(e, data)
		return !had
	}
	for int64(t.slots.Len()) <= e {
		t.slots.Append(entrySlot{})
	}
	s := t.slots.At(int(e))
	had = had || s.held&ls.bit != 0
	switch {
	case s.held&^ls.bit == 0: // no other bookie holds the slot's buffer
		s.data, s.held = data, ls.bit
	case sameBuffer(s.data, data):
		s.held |= ls.bit
	default: // another bookie keeps the buffer of an earlier attempt
		s.held &^= ls.bit
		ls.keep(e, data)
	}
	return !had
}

func (ls *ledgerStore) keep(e int64, data []byte) {
	if ls.own == nil {
		ls.own = map[int64][]byte{}
	}
	ls.own[e] = data
}

// entry returns the buffer the bookie stores as entry e, nil when it holds
// none. Called with the bookie's lock held.
func (ls *ledgerStore) entry(e int64) []byte {
	if t := ls.table; t != nil && ls.bit != 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		if e >= 0 && e < int64(t.slots.Len()) {
			if s := t.slots.At(int(e)); s.held&ls.bit != 0 {
				return s.data
			}
		}
	}
	return ls.own[e]
}

// sameBuffer reports whether a and b are one buffer rather than equal bytes.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Bookie is one storage node.
//
// Entry immutability contract: addEntry retains the data slice it is handed
// without copying, and every replica of an entry shares that one buffer —
// and that one slot of the ledger's entryTable, which records which bookies
// store it. Callers above the ledger layer must never mutate a buffer after
// appending it. readEntry still returns a fresh copy, so readers may mutate
// what they get back. What a bookie serves is its own all the same: an entry
// it missed (down, dropped or fenced) is not served by it, one rewritten at
// the same id while another bookie keeps the earlier buffer is served as
// rewritten, and fence and EntryCount count its entries only.
type Bookie struct {
	ID string

	mu      sync.Mutex
	ledgers map[int64]*ledgerStore
	down    bool

	slow     int64 // atomic: injected straggler latency (ns) per request
	dropNext int64 // under mu: next N addEntry calls fail transiently
}

// NewBookie creates an empty bookie.
func NewBookie(id string) *Bookie {
	return &Bookie{ID: id, ledgers: map[int64]*ledgerStore{}}
}

// ledgerLocked returns (creating if needed) a ledger's store. Called with
// b.mu held.
func (b *Bookie) ledgerLocked(ledgerID int64) *ledgerStore {
	ls := b.ledgers[ledgerID]
	if ls == nil {
		ls = &ledgerStore{last: -1}
		b.ledgers[ledgerID] = ls
	}
	return ls
}

// SetDown injects or clears a crash: a down bookie rejects every request but
// keeps its data (it can come back).
func (b *Bookie) SetDown(down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = down
}

// Down reports whether the bookie is crashed.
func (b *Bookie) Down() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.down
}

// SetSlow injects straggler behaviour: requests against this bookie cost an
// extra d of modelled latency, paid by the caller on its clock (the slowest
// quorum member gates an append, like a straggling replica would).
func (b *Bookie) SetSlow(d time.Duration) { atomic.StoreInt64(&b.slow, int64(d)) }

func (b *Bookie) extraLatency() time.Duration { return time.Duration(atomic.LoadInt64(&b.slow)) }

// DropNext makes the next n addEntry calls fail transiently, as if the
// replication RPC was lost in flight. The writer's single immediate retry
// absorbs isolated drops; bursts force quorum handling.
func (b *Bookie) DropNext(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropNext = int64(n)
}

// addEntry stores data as the ledger's entry entryID; t is the ledger's
// entry table.
func (b *Bookie) addEntry(t *entryTable, ledgerID, entryID int64, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return fmt.Errorf("%w: %s", ErrBookieDown, b.ID)
	}
	if b.dropNext > 0 {
		b.dropNext--
		return fmt.Errorf("%w: %s", ErrDropped, b.ID)
	}
	ls := b.ledgerLocked(ledgerID)
	if ls.fenced {
		return fmt.Errorf("%w: ledger %d on %s", ErrFenced, ledgerID, b.ID)
	}
	if ls.store(t, entryID, data) { // shared, immutable (see type doc)
		ls.count++
	}
	if entryID > ls.last {
		ls.last = entryID
	}
	return nil
}

func (b *Bookie) readEntry(ledgerID, entryID int64) ([]byte, error) {
	data, err := b.storedEntry(ledgerID, entryID)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// storedEntry is readEntry without the copy: the buffer itself, for
// rereplication to share.
func (b *Bookie) storedEntry(ledgerID, entryID int64) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return nil, fmt.Errorf("%w: %s", ErrBookieDown, b.ID)
	}
	if data := b.entryLocked(ledgerID, entryID); data != nil {
		return data, nil
	}
	return nil, fmt.Errorf("%w: ledger %d entry %d on %s", ErrNoEntry, ledgerID, entryID, b.ID)
}

// entryLocked returns the buffer this bookie stores for an entry, nil when
// it holds none. Called with b.mu held.
func (b *Bookie) entryLocked(ledgerID, entryID int64) []byte {
	if ls := b.ledgers[ledgerID]; ls != nil {
		return ls.entry(entryID)
	}
	return nil
}

// fence marks the ledger read-only on this bookie and returns the highest
// entry id it holds for the ledger (-1 if none).
func (b *Bookie) fence(ledgerID int64) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return -1, fmt.Errorf("%w: %s", ErrBookieDown, b.ID)
	}
	ls := b.ledgerLocked(ledgerID)
	ls.fenced = true
	return ls.last, nil
}

func (b *Bookie) deleteLedger(ledgerID int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.ledgers, ledgerID)
}

// EntryCount returns how many entries the bookie stores (all ledgers).
func (b *Bookie) EntryCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, ls := range b.ledgers {
		n += ls.count
	}
	return n
}

const metaRoot = "/ledgers"

// System is the bookkeeper cluster: a set of bookies plus the metadata store.
type System struct {
	clock simclock.Clock
	meta  *coord.Store

	// AppendLatency is the modelled durability cost paid by each Append.
	AppendLatency time.Duration
	// ReadLatency is the modelled bookie RPC cost paid by each Read.
	ReadLatency time.Duration

	mu      sync.Mutex
	bookies map[string]*Bookie
	order   []string // registration order, for deterministic ensembles
	nextID  int64
	tables  map[int64]*entryTable // each live ledger's entries

	// Pre-resolved observability handles; nil (no-ops) until SetObs.
	obsAppends      *obs.Counter
	obsAppendLat    *obs.Histogram
	obsFanIn        *obs.Histogram
	obsReadLat      *obs.Histogram
	obsRecoveries   *obs.Counter
	obsRecoveryTime *obs.Histogram
	obsReplacements *obs.Counter
	obsReplicated   *obs.Counter
	tracer          *obs.Tracer
}

// SetObs attaches observability instruments. Call before traffic starts.
func (s *System) SetObs(r *obs.Registry) {
	s.tracer = r.Tracer()
	s.obsAppends = r.Counter("ledger.append.entries")
	s.obsAppendLat = r.Histogram("ledger.append.latency")
	s.obsFanIn = r.ValueHistogram("ledger.append.batch.fanin")
	s.obsReadLat = r.Histogram("ledger.read.latency")
	s.obsRecoveries = r.Counter("ledger.recoveries")
	s.obsRecoveryTime = r.Histogram("ledger.recovery.time")
	s.obsReplacements = r.Counter("ledger.ensemble.replacements")
	s.obsReplicated = r.Counter("ledger.rereplicated.entries")
}

// NewSystem creates a ledger system using meta for metadata.
func NewSystem(clock simclock.Clock, meta *coord.Store) *System {
	_ = meta.EnsurePath(metaRoot)
	return &System{clock: clock, meta: meta, bookies: map[string]*Bookie{}, tables: map[int64]*entryTable{}}
}

// AddBookie registers a bookie with the cluster.
func (s *System) AddBookie(b *Bookie) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bookies[b.ID]; !ok {
		s.order = append(s.order, b.ID)
	}
	s.bookies[b.ID] = b
}

// Bookie returns a registered bookie by id.
func (s *System) Bookie(id string) (*Bookie, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bookies[id]
	return b, ok
}

// BookieIDs returns bookie ids in registration order (a stable target list
// for fault injection).
func (s *System) BookieIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Writer appends entries to an open ledger. A ledger has a single writer.
type Writer struct {
	sys      *System
	ledgerID int64
	path     string // the ledger's metadata node
	meta     metadata
	metaBuf  []byte // meta's encoding, rewritten in place on every change
	table    *entryTable
	next     int64
	closed   bool
}

// CreateLedger opens a new ledger striped across an ensemble of ensembleSize
// live bookies; each entry is written to writeQuorum of them and acknowledged
// after ackQuorum durable copies.
func (s *System) CreateLedger(ensembleSize, writeQuorum, ackQuorum int) (*Writer, error) {
	if ackQuorum < 1 || ackQuorum > writeQuorum || writeQuorum > ensembleSize {
		return nil, fmt.Errorf("%w: ensemble=%d write=%d ack=%d", ErrBadQuorum, ensembleSize, writeQuorum, ackQuorum)
	}
	ensemble, err := s.pickEnsemble(ensembleSize)
	if err != nil {
		return nil, err
	}
	w := &Writer{sys: s}
	if err := w.open(metadata{Ensemble: ensemble, WriteQuorum: writeQuorum, AckQuorum: ackQuorum}, 0); err != nil {
		return nil, err
	}
	return w, nil
}

// pickEnsemble returns the first size live bookies in registration order.
func (s *System) pickEnsemble(size int) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []string
	for _, id := range s.order {
		if !s.bookies[id].Down() {
			live = append(live, id)
		}
	}
	if len(live) < size {
		return nil, fmt.Errorf("%w: have %d live, need %d", ErrNotEnough, len(live), size)
	}
	return live[:size], nil
}

// allLive reports whether every bookie of an ensemble is registered and up.
func (s *System) allLive(ensemble []string) bool {
	for _, id := range ensemble {
		if b, ok := s.Bookie(id); !ok || b.Down() {
			return false
		}
	}
	return true
}

// open points the writer at a new, empty ledger with metadata md, whose node
// it creates, and whose entry table it presizes to reserve entries
// (seglog.Log.Reserve; zero leaves the table to grow). The writer is
// unchanged when that fails.
func (w *Writer) open(md metadata, reserve int) error {
	w.sys.mu.Lock()
	w.sys.nextID++
	id := w.sys.nextID
	w.sys.mu.Unlock()
	path := metaPath(id)
	buf := appendMeta(w.metaBuf[:0], md)
	if err := w.sys.meta.Create(path, buf, coord.Persistent, 0); err != nil {
		return err
	}
	t := &entryTable{}
	t.slots.Reserve(reserve)
	w.sys.mu.Lock()
	w.sys.tables[id] = t
	w.sys.mu.Unlock()
	w.ledgerID, w.path, w.meta, w.metaBuf, w.table, w.next = id, path, md, buf, t, 0
	return nil
}

// saveMeta rewrites the ledger's metadata node from w.meta.
func (w *Writer) saveMeta() error {
	w.metaBuf = appendMeta(w.metaBuf[:0], w.meta)
	_, err := w.sys.meta.Set(w.path, w.metaBuf, coord.AnyVersion)
	return err
}

// Roll seals the writer's ledger as Close does and continues the writer in a
// fresh ledger, whose first entry id is 0 again. The new ledger keeps the
// ensemble while every member is live and otherwise takes live bookies as
// CreateLedger does; its entry table is presized to the length of the ledger
// just sealed. A failed Roll leaves the writer appending where it
// was, with no new ledger.
func (w *Writer) Roll() error {
	if w.closed {
		return ErrWriterClosed
	}
	ensemble := w.meta.Ensemble
	if !w.sys.allLive(ensemble) {
		var err error
		if ensemble, err = w.sys.pickEnsemble(len(ensemble)); err != nil {
			return err
		}
	}
	prev := *w
	sealed := w.meta
	sealed.Closed, sealed.LastEntry = true, w.next-1
	// The successor's node first: until the seal lands, the old ledger is
	// still the one the writer appends to.
	if err := w.open(metadata{Ensemble: ensemble, WriteQuorum: sealed.WriteQuorum, AckQuorum: sealed.AckQuorum}, int(prev.next)); err != nil {
		return err
	}
	// The node owns its own copy of the new record, so the buffer is free to
	// encode the sealed one.
	w.metaBuf = appendMeta(w.metaBuf[:0], sealed)
	if _, err := w.sys.meta.Set(prev.path, w.metaBuf, coord.AnyVersion); err != nil {
		_ = w.sys.meta.Delete(w.path, coord.AnyVersion)
		w.sys.dropEntries(w.ledgerID)
		prev.metaBuf = w.metaBuf
		*w = prev
		return err
	}
	return nil
}

// ID returns the ledger's id.
func (w *Writer) ID() int64 { return w.ledgerID }

// Append writes data as the next entry — a group commit of one — returning
// its entry id once ackQuorum bookies have it. The writer retains data
// without copying (see the Bookie immutability contract): do not mutate it
// after the call.
func (w *Writer) Append(data []byte) (int64, error) {
	entries := [1][]byte{data}
	id, err := w.AppendBatchCtx(entries[:], obs.TraceCtx{})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// AppendBatch writes entries as one group commit: the modelled
// AppendLatency — the durability round trip — is paid once for the whole
// batch instead of once per entry, while each entry still replicates to its
// write quorum. It returns the entry id assigned to entries[0]; subsequent
// entries get consecutive ids. Entries commit in order; if one fails to
// reach its ack quorum the batch stops there, the error is returned, and the
// earlier entries of the batch stay committed (callers needing atomicity
// must treat the whole batch as failed and rely on recovery semantics, as
// the broker does). Entries are retained without copying, like Append.
func (w *Writer) AppendBatch(entries [][]byte) (int64, error) {
	return w.AppendBatchCtx(entries, obs.TraceCtx{})
}

// AppendBatchCtx is AppendBatch carrying the caller's causal context: a
// valid tc adds one "ledger.append" span (covering the durability round trip
// and quorum replication) to the caller's trace. A group aggregates entries
// from many requests, so the span is coarse: it parents on tc (by convention
// the first traced entry in the group) and annotates nothing per entry. A
// zero tc traces nothing — an untraced commit costs one branch, not a span.
func (w *Writer) AppendBatchCtx(entries [][]byte, tc obs.TraceCtx) (int64, error) {
	if w.closed {
		return 0, ErrWriterClosed
	}
	first := w.next
	if len(entries) == 0 {
		return first, nil
	}
	var span obs.SpanRef
	if tc.Valid() {
		span = w.sys.tracer.Start(tc, "ledger.append")
	}
	var start time.Time
	if w.sys.obsAppendLat != nil {
		start = w.sys.clock.Now()
	}
	w.sys.clock.Sleep(w.sys.AppendLatency + w.stragglerExtra())
	for _, data := range entries {
		if err := w.replicate(w.next, data); err != nil {
			span.EndErr(true)
			return first, err
		}
		w.next++
	}
	w.sys.obsAppends.Add(int64(len(entries)))
	w.sys.obsFanIn.ObserveValue(int64(len(entries)))
	if !start.IsZero() {
		w.sys.obsAppendLat.Observe(w.sys.clock.Now().Sub(start))
	}
	span.End()
	return first, nil
}

// replicate pushes one entry to its write quorum and requires ackQuorum
// durable copies. A fenced ensemble permanently closes the writer. When the
// quorum cannot be reached because replicas are down, the writer performs a
// BookKeeper-style ensemble change instead of failing: the dead bookies are
// swapped for live spares in the metadata, the entry retries against the new
// ensemble, and a background task re-replicates earlier entries onto the
// replacements.
func (w *Writer) replicate(entryID int64, data []byte) error {
	const maxEnsembleChanges = 2
	for change := 0; ; change++ {
		acks := 0
		var lastErr error
		var failed []int // ensemble positions that did not ack
		for j := 0; j < w.meta.WriteQuorum; j++ {
			pos := int((entryID + int64(j)) % int64(len(w.meta.Ensemble)))
			b, ok := w.sys.Bookie(w.meta.Ensemble[pos])
			if !ok {
				failed = append(failed, pos)
				continue
			}
			err := b.addEntry(w.table, w.ledgerID, entryID, data)
			if errors.Is(err, ErrDropped) {
				// One immediate retry absorbs an isolated lost RPC.
				err = b.addEntry(w.table, w.ledgerID, entryID, data)
			}
			if err != nil {
				if errors.Is(err, ErrFenced) {
					w.closed = true
					return err
				}
				lastErr = err
				failed = append(failed, pos)
				continue
			}
			acks++
		}
		if acks >= w.meta.AckQuorum {
			return nil
		}
		if change >= maxEnsembleChanges || len(failed) == 0 {
			return fmt.Errorf("%w: %d/%d acks (%v)", ErrQuorumLost, acks, w.meta.AckQuorum, lastErr)
		}
		if err := w.replaceBookies(failed); err != nil {
			return fmt.Errorf("%w: %d/%d acks (%v; ensemble change failed: %v)", ErrQuorumLost, acks, w.meta.AckQuorum, lastErr, err)
		}
	}
}

// replaceBookies swaps the ensemble members at the given positions for live
// spare bookies, persists the updated metadata, and starts background
// re-replication of the entries previously striped onto those positions.
// Fails with ErrNotEnough when no spare is available.
func (w *Writer) replaceBookies(positions []int) error {
	start := w.sys.clock.Now()
	inUse := make(map[string]bool, len(w.meta.Ensemble))
	for _, id := range w.meta.Ensemble {
		inUse[id] = true
	}
	w.sys.mu.Lock()
	var spares []string
	for _, id := range w.sys.order {
		if !inUse[id] && !w.sys.bookies[id].Down() {
			spares = append(spares, id)
		}
	}
	w.sys.mu.Unlock()
	if len(spares) < len(positions) {
		return fmt.Errorf("%w: need %d spare bookies, have %d", ErrNotEnough, len(positions), len(spares))
	}
	ensemble := append([]string(nil), w.meta.Ensemble...)
	replaced := make(map[int]string, len(positions)) // position -> old bookie
	for i, pos := range positions {
		replaced[pos] = ensemble[pos]
		ensemble[pos] = spares[i]
	}
	w.meta.Ensemble = ensemble
	if err := w.saveMeta(); err != nil {
		return err
	}
	w.sys.obsReplacements.Add(int64(len(positions)))
	// Restore the write quorum for the ledger prefix on a tracked goroutine
	// so the append path is not blocked behind the copy.
	md := w.meta
	md.Ensemble = append([]string(nil), ensemble...)
	upto := w.next
	sys, ledgerID, t := w.sys, w.ledgerID, w.table
	sys.clock.Go(func() {
		copied := sys.rereplicate(t, ledgerID, md, replaced, upto)
		sys.obsReplicated.Add(int64(copied))
		sys.obsRecoveries.Inc()
		sys.obsRecoveryTime.Observe(sys.clock.Now().Sub(start))
	})
	return nil
}

// rereplicate restores every entry in [0, upto) whose replica set includes a
// replaced ensemble position onto the replacement bookie: it takes a
// surviving replica's buffer and stores it there, which sets the bookie's bit
// in the ledger's table t rather than copying. Entries with no reachable
// replica are skipped: they were either never acked, or lost beyond what the
// quorum can protect.
func (s *System) rereplicate(t *entryTable, ledgerID int64, md metadata, replaced map[int]string, upto int64) int {
	copied := 0
	for e := int64(0); e < upto; e++ {
		for j := 0; j < md.WriteQuorum; j++ {
			pos := int((e + int64(j)) % int64(len(md.Ensemble)))
			old, wasReplaced := replaced[pos]
			if !wasReplaced {
				continue
			}
			dst, ok := s.Bookie(md.Ensemble[pos])
			if !ok {
				continue
			}
			data := s.readReplica(ledgerID, md, e, pos)
			if data == nil {
				// Last resort: the replaced bookie may still serve reads
				// (e.g. it only dropped writes).
				if ob, ok := s.Bookie(old); ok {
					data, _ = ob.storedEntry(ledgerID, e)
				}
			}
			if data == nil {
				continue
			}
			if err := dst.addEntry(t, ledgerID, e, data); err == nil {
				copied++
			}
		}
	}
	return copied
}

// readReplica fetches one entry's buffer from any replica position but skipPos.
func (s *System) readReplica(ledgerID int64, md metadata, entryID int64, skipPos int) []byte {
	for j := 0; j < md.WriteQuorum; j++ {
		pos := int((entryID + int64(j)) % int64(len(md.Ensemble)))
		if pos == skipPos {
			continue
		}
		if b, ok := s.Bookie(md.Ensemble[pos]); ok {
			if data, err := b.storedEntry(ledgerID, entryID); err == nil {
				return data
			}
		}
	}
	return nil
}

// stragglerExtra is the injected latency gating an append: the slowest
// ensemble member bounds the quorum round trip.
func (w *Writer) stragglerExtra() time.Duration {
	var max time.Duration
	for _, bid := range w.meta.Ensemble {
		if b, ok := w.sys.Bookie(bid); ok {
			if d := b.extraLatency(); d > max {
				max = d
			}
		}
	}
	return max
}

// Close seals the ledger, recording the last entry id in metadata.
func (w *Writer) Close() error {
	if w.closed {
		return ErrWriterClosed
	}
	w.closed = true
	w.meta.Closed = true
	w.meta.LastEntry = w.next - 1
	return w.saveMeta()
}

// Reader returns a reader over what this writer has appended so far: entries
// [0, next), BookKeeper's read up to last-add-confirmed. It is how a ledger's
// one writer reads its own ledger back without closing it. The reader is a
// snapshot — later appends are past its LastEntry, and a later ensemble
// change is served through the replicas it already knows — so open one per
// pass and do not keep it.
func (w *Writer) Reader() *Reader {
	md := w.meta // replaceBookies installs a fresh Ensemble slice, never edits this one
	md.LastEntry = w.next - 1
	return &Reader{sys: w.sys, ledgerID: w.ledgerID, meta: md}
}

// Reader reads a closed ledger, or an open one up to where its writer had
// got (Writer.Reader).
type Reader struct {
	sys      *System
	ledgerID int64
	meta     metadata
	// cold holds the ledger's entries when it was opened from the blob
	// tier (OpenTiered on an offloaded ledger).
	cold [][]byte
}

// OpenReader opens a closed ledger for reading. Opening a still-open ledger
// returns ErrNotClosed; use Recover for crashed writers.
func (s *System) OpenReader(ledgerID int64) (*Reader, error) {
	md, err := s.loadMeta(ledgerID)
	if err != nil {
		return nil, err
	}
	if !md.Closed {
		return nil, fmt.Errorf("%w: ledger %d", ErrNotClosed, ledgerID)
	}
	return &Reader{sys: s, ledgerID: ledgerID, meta: md}, nil
}

// LastEntry returns the id of the final entry (-1 for an empty ledger).
func (r *Reader) LastEntry() int64 { return r.meta.LastEntry }

// Read returns entry entryID as a private copy: from the blob-tier copy
// OpenTiered fetched when the ledger is offloaded (no ReadLatency: the fetch
// paid for it), otherwise from each replica in turn until a live bookie
// serves it.
func (r *Reader) Read(entryID int64) ([]byte, error) {
	if r.cold != nil {
		if entryID < 0 || entryID >= int64(len(r.cold)) {
			return nil, fmt.Errorf("%w: %d (last is %d)", ErrNoEntry, entryID, len(r.cold)-1)
		}
		return append([]byte(nil), r.cold[entryID]...), nil
	}
	if entryID < 0 || entryID > r.meta.LastEntry {
		return nil, fmt.Errorf("%w: %d (last is %d)", ErrNoEntry, entryID, r.meta.LastEntry)
	}
	var start time.Time
	if r.sys.obsReadLat != nil {
		start = r.sys.clock.Now()
	}
	r.sys.clock.Sleep(r.sys.ReadLatency)
	defer func() {
		if !start.IsZero() {
			r.sys.obsReadLat.Observe(r.sys.clock.Now().Sub(start))
		}
	}()
	var lastErr error
	for j := 0; j < r.meta.WriteQuorum; j++ {
		bid := r.meta.Ensemble[int(entryID+int64(j))%len(r.meta.Ensemble)]
		b, ok := r.sys.Bookie(bid)
		if !ok {
			continue
		}
		data, err := b.readEntry(r.ledgerID, entryID)
		if err == nil {
			r.sys.clock.Sleep(b.extraLatency())
			return data, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("ledger %d entry %d unreadable: %w", r.ledgerID, entryID, lastErr)
}

// readAll returns every entry in order.
func (r *Reader) readAll() ([][]byte, error) {
	out := make([][]byte, 0, r.meta.LastEntry+1)
	for e := int64(0); e <= r.meta.LastEntry; e++ {
		data, err := r.Read(e)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// Recover handles a crashed writer: it fences the ledger on every reachable
// ensemble bookie (so the old writer can no longer append), determines the
// last entry that reached the ack quorum, seals the metadata, and returns a
// Reader. Recovering an already-closed ledger just opens it.
func (s *System) Recover(ledgerID int64) (*Reader, error) {
	md, err := s.loadMeta(ledgerID)
	if err != nil {
		return nil, err
	}
	if md.Closed {
		return &Reader{sys: s, ledgerID: ledgerID, meta: md}, nil
	}
	// Fence and collect per-bookie last-entry ids.
	reachable := 0
	var lasts []int64
	for _, bid := range md.Ensemble {
		b, ok := s.Bookie(bid)
		if !ok {
			continue
		}
		last, err := b.fence(ledgerID)
		if err != nil {
			continue
		}
		reachable++
		lasts = append(lasts, last)
	}
	if reachable == 0 {
		return nil, fmt.Errorf("%w: no ensemble bookie reachable for recovery", ErrNotEnough)
	}
	// An entry is recoverable if some reachable bookie holds it. Walk
	// forward from -1: the last recoverable entry is the max id for which
	// at least one bookie reports last ≥ id AND the entry is actually
	// readable from a replica. (Entries past the last acked one may exist
	// on a minority; BookKeeper recovers them too — anything readable is
	// kept, which preserves the "acked entries are never lost" guarantee.)
	sort.Slice(lasts, func(i, j int) bool { return lasts[i] < lasts[j] })
	maxSeen := lasts[len(lasts)-1]
	lastEntry := int64(-1)
	probe := Reader{sys: s, ledgerID: ledgerID, meta: metadata{
		Ensemble: md.Ensemble, WriteQuorum: md.WriteQuorum, AckQuorum: md.AckQuorum, Closed: true, LastEntry: maxSeen,
	}}
	for e := int64(0); e <= maxSeen; e++ {
		if _, err := probe.Read(e); err != nil {
			break
		}
		lastEntry = e
	}
	md.Closed = true
	md.LastEntry = lastEntry
	if _, err := s.meta.Set(metaPath(ledgerID), appendMeta(nil, md), coord.AnyVersion); err != nil {
		return nil, err
	}
	return &Reader{sys: s, ledgerID: ledgerID, meta: md}, nil
}

// DeleteLedger removes a ledger's metadata and its entries from all bookies.
// The metadata goes first, so no reader can open a ledger whose entries are
// gone.
func (s *System) DeleteLedger(ledgerID int64) error {
	if err := s.meta.Delete(metaPath(ledgerID), coord.AnyVersion); err != nil {
		if errors.Is(err, coord.ErrNoNode) {
			return fmt.Errorf("%w: %d", ErrNoLedger, ledgerID)
		}
		return err
	}
	s.dropEntries(ledgerID)
	return nil
}

// dropEntries deletes a ledger's entries from every bookie, and its table.
func (s *System) dropEntries(ledgerID int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tables, ledgerID)
	for _, b := range s.bookies {
		b.deleteLedger(ledgerID)
	}
}

func (s *System) loadMeta(ledgerID int64) (metadata, error) {
	raw, _, err := s.meta.Get(metaPath(ledgerID))
	if err != nil {
		return metadata{}, fmt.Errorf("%w: %d", ErrNoLedger, ledgerID)
	}
	return decodeMeta(raw)
}
