package pulsar

// pendingMinRing is the ring's first size; it doubles from there.
const pendingMinRing = 64

// pendingWindow is a subscription's delivered-but-unacked set: for every seq
// in [base, end) the id of the consumer the message was last delivered to,
// 0 for a seq that is not pending (consumer ids start at 1). The cursor
// guarantees base == ackedPrefix and end <= nextDispatch, so the set is a
// dense window and not a map: deliver and ack are a store into a
// power-of-two ring, which grows only when the delivered-unacked span
// outgrows it, and a walk visits pending seqs in ascending order.
//
// Invariants, with the topic's lock held:
//   - every slot of the ring outside [base, end) is 0, so end can move up
//     over slots never written and the ring can be reused as base advances;
//   - a seq below base is not pending: advance drops what the acked prefix
//     passes, and set ignores a redelivery of a seq the prefix already
//     covers (the message is still delivered; there is nothing left to ack).
type pendingWindow struct {
	ring      []int64 // len is 0 or a power of two
	base, end int64
}

// slot is seq's place in the ring; the ring must not be empty.
func (w *pendingWindow) slot(seq int64) *int64 { return &w.ring[seq&int64(len(w.ring)-1)] }

// set records that seq was delivered to consumer id.
func (w *pendingWindow) set(seq, id int64) {
	if seq < w.base {
		return
	}
	if seq-w.base >= int64(len(w.ring)) {
		w.grow(seq - w.base + 1)
	}
	*w.slot(seq) = id
	if seq >= w.end {
		w.end = seq + 1
	}
}

// grow re-homes the window in a ring of at least span slots.
func (w *pendingWindow) grow(span int64) {
	size := int64(max(len(w.ring), pendingMinRing))
	for size < span {
		size *= 2
	}
	ring := make([]int64, size)
	for seq := w.base; seq < w.end; seq++ {
		ring[seq&(size-1)] = *w.slot(seq)
	}
	w.ring = ring
}

// clear removes seq from the set; a seq that is not pending is a no-op.
func (w *pendingWindow) clear(seq int64) {
	if seq >= w.base && seq < w.end {
		*w.slot(seq) = 0
	}
}

// advance moves base up to the acked prefix (which never moves back),
// dropping everything below it.
func (w *pendingWindow) advance(prefix int64) {
	for seq := w.base; seq < min(prefix, w.end); seq++ {
		*w.slot(seq) = 0
	}
	w.base = prefix
	w.end = max(w.end, prefix)
}

// drain removes every pending seq whose consumer is id — every pending seq
// when id is 0 — and appends them to out in ascending order.
func (w *pendingWindow) drain(id int64, out []int64) []int64 {
	for seq := w.base; seq < w.end; seq++ {
		slot := w.slot(seq)
		if *slot != 0 && (id == 0 || *slot == id) {
			*slot = 0
			out = append(out, seq)
		}
	}
	return out
}
