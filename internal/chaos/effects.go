package chaos

import (
	"errors"
	"fmt"
	"sync"
)

// This file is the effect-boundary half of the chaos plane: crash-after-effect
// injection at named effect boundaries inside a handler execution, plus
// duplicate-delivery support constants. "Formal Foundations of Serverless
// Computing" models a platform crash as striking between any two effects of a
// handler; Crasher makes that precise and injectable — a handler (or the
// conform explorer's wrapper around it) marks each effect boundary by name,
// and an armed Crasher kills the attempt immediately after the k-th effect
// has applied, leaving effects 1..k durable and k+1.. unexecuted. That is
// exactly the partial-execution prefix the at-least-once retry semantics must
// be robust to.

// ErrInjectedCrash is the error a recovered injected crash surfaces as.
// Platform retry machinery treats it like any other handler failure (it is
// retryable), which is the point: a crashed attempt is re-executed.
var ErrInjectedCrash = errors.New("chaos: injected crash")

// CrashSignal is the panic payload an armed Crasher raises. It is converted
// into an error wrapping ErrInjectedCrash by RecoverCrash; any other panic
// value passes through untouched.
type CrashSignal struct {
	Boundary string // name of the effect boundary the crash struck at ("" = entry)
	Index    int    // how many effects had applied when the crash struck (0 = entry)
}

// Crasher injects a crash at a chosen effect boundary of a handler attempt.
// It is one-shot: after firing it disarms itself, so the platform's retry of
// the crashed attempt runs clean unless the driver re-arms. Safe for use from
// the single goroutine executing the handler plus any goroutine calling
// Arm/Disarm between attempts (the conform explorer's driver).
type Crasher struct {
	mu    sync.Mutex
	armed int // effect index to crash at; <0 disarmed
	count int // effects applied in the current attempt
}

// NewCrasher returns a disarmed Crasher.
func NewCrasher() *Crasher { return &Crasher{armed: -1} }

// Arm schedules a crash during the next (or current) attempt: k == 0 strikes
// at Begin, before any effect; k >= 1 strikes at the k-th Boundary call,
// after that effect has applied.
func (c *Crasher) Arm(k int) {
	c.mu.Lock()
	c.armed = k
	c.mu.Unlock()
}

// Disarm cancels any scheduled crash.
func (c *Crasher) Disarm() {
	c.mu.Lock()
	c.armed = -1
	c.mu.Unlock()
}

// Begin starts an attempt: the effect count resets. If the Crasher is armed
// at 0 the attempt dies here — a crash at function entry, before any effect.
func (c *Crasher) Begin() {
	c.mu.Lock()
	c.count = 0
	fire := c.armed == 0
	if fire {
		c.armed = -1
	}
	c.mu.Unlock()
	if fire {
		panic(CrashSignal{Boundary: "", Index: 0})
	}
}

// Boundary records that the named effect has just applied, and fires the
// injected crash if this is the armed boundary. Call it immediately AFTER the
// effect becomes durable — the crash then models "the platform died after the
// effect landed but before the handler finished".
func (c *Crasher) Boundary(name string) {
	c.mu.Lock()
	c.count++
	fire := c.armed == c.count
	idx := c.count
	if fire {
		c.armed = -1
	}
	c.mu.Unlock()
	if fire {
		panic(CrashSignal{Boundary: name, Index: idx})
	}
}

// Crossings returns how many effect boundaries the current (or last) attempt
// crossed.
func (c *Crasher) Crossings() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// RecoverCrash converts an in-flight CrashSignal panic into *err (wrapping
// ErrInjectedCrash) and re-raises any other panic. Use as the first defer of
// a handler wrapped for conformance exploration:
//
//	func(ctx *faas.Ctx, payload []byte) (out []byte, err error) {
//		defer chaos.RecoverCrash(&err)
//		crasher.Begin()
//		return inner(ctx, payload)
//	}
func RecoverCrash(err *error) {
	r := recover()
	if r == nil {
		return
	}
	cs, ok := r.(CrashSignal)
	if !ok {
		panic(r)
	}
	if cs.Index == 0 {
		*err = fmt.Errorf("%w at entry", ErrInjectedCrash)
		return
	}
	*err = fmt.Errorf("%w after effect %d (%s)", ErrInjectedCrash, cs.Index, cs.Boundary)
}
