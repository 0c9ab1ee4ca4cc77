package pulsar

import "sync/atomic"

// receiverQueue is how many delivered messages a consumer holds: Pulsar's
// default receiver queue (1000) rounded up to a power of two. It is a
// constant, not an option: it bounds what a consumer that stops receiving
// costs (1024 slots of 112 B, allocated once at Subscribe) and how much one
// dispatch round reads back under a partition's lock, and nothing in the
// repository wants a second value for either.
const receiverQueue = 1024

// inboxSlot is one cell of the ring. seq says whose turn the cell is: pos
// when the producer that claimed position pos may write it, pos+1 once that
// message is published, pos+receiverQueue once it has been popped and the
// cell is free for the next lap.
type inboxSlot struct {
	seq atomic.Int64
	msg Message
}

// inbox is a consumer's receiver queue: one fixed ring, many producers
// (brokers dispatching different partitions under their own topic locks),
// one consumer. A producer claims a position by CAS on tail, writes the
// cell, then publishes it through the cell's seq, so a slow producer delays
// only its own cell; push reports a full ring instead of growing it, and the
// broker ends its dispatch round there (deliverLocked): room in the ring is
// the consumer's flow permits. The steady-state op allocates nothing.
//
// Ordering: messages from one producer (pushes under one topic's lock)
// arrive in order because each push completes before the next begins.
// Cross-producer interleaving carries no ordering contract. pop stops at the
// first unpublished cell even if later cells are published: that cell's
// producer is mid-push, and its message is not deliverable yet.
//
// pop takes head by CAS although one goroutine receives: Consumer.Close may
// come from another goroutine, to stop a blocked Receive, and empties the
// ring under the receiver's last pop.
type inbox struct {
	head  atomic.Int64
	tail  atomic.Int64
	slots *[receiverQueue]inboxSlot // its own allocation: 14 pages exactly
}

func newInbox() *inbox {
	in := &inbox{slots: new([receiverQueue]inboxSlot)}
	for i := range in.slots {
		in.slots[i].seq.Store(int64(i))
	}
	return in
}

// push enqueues m, or reports false when receiverQueue messages are unpopped.
// Safe for any number of concurrent producers.
func (in *inbox) push(m *Message) bool {
	for {
		pos := in.tail.Load()
		s := &in.slots[pos&(receiverQueue-1)]
		switch seq := s.seq.Load(); {
		case seq < pos: // still holds the message from a lap ago
			return false
		case seq == pos && in.tail.CompareAndSwap(pos, pos+1):
			s.msg = *m
			s.seq.Store(pos + 1)
			return true
		} // else another producer took pos: try the next
	}
}

// pop dequeues the oldest delivered message.
func (in *inbox) pop() (Message, bool) {
	for {
		pos := in.head.Load()
		s := &in.slots[pos&(receiverQueue-1)]
		switch seq := s.seq.Load(); {
		case seq <= pos: // empty, or its producer is mid-push
			return Message{}, false
		case seq == pos+1 && in.head.CompareAndSwap(pos, pos+1):
			m := s.msg
			s.msg = Message{} // release the payload reference
			s.seq.Store(pos + receiverQueue)
			return m, true
		} // else Close took pos: try the next
	}
}

// len reports the buffered message count (exact when both sides are quiet,
// never below zero).
func (in *inbox) len() int {
	head := in.head.Load()
	return int(in.tail.Load() - head)
}
