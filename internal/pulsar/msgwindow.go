package pulsar

// msgMinRing is the ring's first size; it doubles from there.
const msgMinRing = 16

// msgWindow is all a broker holds of a topic's messages: those in
// [base, end), in a power-of-two ring. end is the topic's next seq. base is
// moved up only by trim, which the topic calls — with the lowest acked prefix
// over its subscriptions — when an append is about to find the ring full; so
// a topic whose consumers keep up cycles through one small ring for ever, the
// ring grows only when the unacked span outgrows it, and acking does no work
// here. Everything below base is on the ledgers (topicState.readRange).
//
// With the topic's lock held: at(seq) is stable until the next append; a
// slot outside [base, end) is zero — trim clears what base passes — so the
// ring pins no entry the topic's ledgers have let go of (DESIGN.md §10,
// "Arena honesty").
type msgWindow struct {
	ring      []Message // len is 0 or a power of two
	base, end int64
}

// at returns the message at seq, which must be in [base, end).
func (w *msgWindow) at(seq int64) *Message { return &w.ring[seq&int64(len(w.ring)-1)] }

// full reports whether the next append has to grow the ring.
func (w *msgWindow) full() bool { return w.end-w.base == int64(len(w.ring)) }

// trim forgets every message below floor, zeroing the slots base passes.
// base never moves back: a subscription that joins below it reads the
// ledgers.
func (w *msgWindow) trim(floor int64) {
	for end := min(floor, w.end); w.base < end; w.base++ {
		*w.at(w.base) = Message{}
	}
}

// append adds m at seq end, doubling a full ring first.
func (w *msgWindow) append(m Message) {
	if w.full() {
		ring := make([]Message, max(2*len(w.ring), msgMinRing))
		for seq := w.base; seq < w.end; seq++ {
			ring[seq&int64(len(ring)-1)] = *w.at(seq)
		}
		w.ring = ring
	}
	w.ring[w.end&int64(len(w.ring)-1)] = m
	w.end++
}
