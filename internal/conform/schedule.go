package conform

import (
	"fmt"
	"strings"
)

// LostReply is the fault value modelling a client that lost the reply to a
// successful attempt and re-invokes: the attempt executes cleanly, the retry
// happens anyway. It is the canonical duplicate-request fault of Jangda et
// al.'s at-least-once operational semantics.
const LostReply = -1

// InvPlan scripts the fault sequence around one client invocation.
type InvPlan struct {
	// Faults holds one fault per non-final attempt, in attempt order:
	// k >= 0 crashes the attempt after its k-th effect boundary (0 = at
	// entry, before any effect); LostReply lets the attempt succeed but
	// retries anyway. The attempt after the last fault runs clean, so an
	// invocation always issues len(Faults)+1 attempts.
	Faults []int `json:"faults,omitempty"`
	// Dups is how many duplicate deliveries of the whole request follow the
	// retry sequence — clean re-invocations carrying the same idempotency
	// key when the workload is dedup-keyed.
	Dups int `json:"dups,omitempty"`
}

// Schedule is one fully deterministic interleaving: per-invocation fault
// plans plus, for sink workloads, the set of downstream delivery indexes
// whose consumer acks are lost in flight (forcing broker redelivery).
type Schedule struct {
	Invs     []InvPlan `json:"invs,omitempty"`
	DropAcks []int     `json:"dropAcks,omitempty"`
}

// String renders a schedule compactly, e.g.
// "inv0[crash@1 lost +1dup] drop{0,2}".
func (s Schedule) String() string {
	var b strings.Builder
	b.WriteString("sched{")
	for i, p := range s.Invs {
		if len(p.Faults) == 0 && p.Dups == 0 {
			continue
		}
		fmt.Fprintf(&b, " inv%d[", i)
		for j, f := range p.Faults {
			if j > 0 {
				b.WriteString(" ")
			}
			if f == LostReply {
				b.WriteString("lost")
			} else {
				fmt.Fprintf(&b, "crash@%d", f)
			}
		}
		if p.Dups > 0 {
			fmt.Fprintf(&b, " +%ddup", p.Dups)
		}
		b.WriteString("]")
	}
	if len(s.DropAcks) > 0 {
		fmt.Fprintf(&b, " drop%v", s.DropAcks)
	}
	b.WriteString(" }")
	return b.String()
}

// plan returns the invocation's fault plan (zero plan past the scripted
// prefix).
func (s Schedule) plan(i int) InvPlan {
	if i < len(s.Invs) {
		return s.Invs[i]
	}
	return InvPlan{}
}

// dropPoolSize bounds the delivery indexes eligible for ack drops, and
// maxDropAcks the drop-set size — two lost acks already compose redelivery
// with every other fault kind.
const (
	dropPoolSize = 4
	maxDropAcks  = 2
)

// enumerate generates schedules in deterministic, weight-ascending order
// (weight = total faults + dups + dropped acks): all single-fault schedules,
// then all pairs, and so on — so the first divergence found is a minimal
// witness. The baseline (weight 0) is excluded. effects is the per-execution
// effect-boundary count observed on the no-fault run; the crash alphabet is
// {0..effects} ∪ {LostReply}. Sink workloads additionally vary ack-drop
// subsets; dup-only workloads explore duplicate deliveries alone, at greater
// depth. Output is capped at opts.MaxSchedules.
func enumerate(invocations, effects int, sink, dupOnly bool, opts Options) []Schedule {
	var alphabet []int
	maxFaults, maxDups := maxFaultDepth, defaultMaxDups
	if dupOnly {
		maxFaults = 0
		maxDups = dupOnlyMaxDups
	} else {
		for k := 0; k <= effects; k++ {
			alphabet = append(alphabet, k)
		}
		alphabet = append(alphabet, LostReply)
	}
	maxDrop := 0
	if sink {
		maxDrop = maxDropAcks
	}

	var out []Schedule
	maxWeight := invocations*(maxFaults+maxDups) + maxDrop
	for weight := 1; weight <= maxWeight && len(out) < opts.MaxSchedules; weight++ {
		genWeight(weight, invocations, alphabet, maxFaults, maxDups, maxDrop, opts.MaxSchedules, &out)
	}
	if len(out) > opts.MaxSchedules {
		out = out[:opts.MaxSchedules]
	}
	return out
}

const (
	// maxFaultDepth caps the per-invocation fault-sequence length.
	maxFaultDepth = 4
	// defaultMaxDups caps duplicate deliveries per invocation.
	defaultMaxDups = 2
	// dupOnlyMaxDups is the duplicate-delivery depth for dup-only workloads:
	// without crash faults, depth is the only lever for coverage.
	dupOnlyMaxDups = 5
)

// genWeight appends every schedule of exactly the given weight, in
// deterministic order: invocation by invocation, fault-sequence length before
// dup count, crash points in boundary order with LostReply last, ack-drop
// subsets lexicographic.
func genWeight(weight, invocations int, alphabet []int, maxFaults, maxDups, maxDrop, limit int, out *[]Schedule) {
	cur := make([]InvPlan, 0, invocations)
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if len(*out) >= limit {
			return
		}
		if i == invocations {
			if remaining == 0 {
				*out = append(*out, Schedule{Invs: clonePlans(cur)})
				return
			}
			if remaining > maxDrop {
				return
			}
			forEachSubset(dropPoolSize, remaining, func(sub []int) {
				if len(*out) >= limit {
					return
				}
				*out = append(*out, Schedule{Invs: clonePlans(cur), DropAcks: append([]int(nil), sub...)})
			})
			return
		}
		for f := 0; f <= maxFaults && f <= remaining; f++ {
			for d := 0; d <= maxDups && f+d <= remaining; d++ {
				forEachSeq(alphabet, f, func(seq []int) {
					cur = append(cur, InvPlan{Faults: append([]int(nil), seq...), Dups: d})
					rec(i+1, remaining-f-d)
					cur = cur[:len(cur)-1]
				})
			}
		}
	}
	rec(0, weight)
}

func clonePlans(ps []InvPlan) []InvPlan {
	// Trim trailing zero plans so equal schedules have one canonical form.
	n := len(ps)
	for n > 0 && len(ps[n-1].Faults) == 0 && ps[n-1].Dups == 0 {
		n--
	}
	out := make([]InvPlan, n)
	for i := 0; i < n; i++ {
		out[i] = InvPlan{Faults: append([]int(nil), ps[i].Faults...), Dups: ps[i].Dups}
	}
	return out
}

// forEachSeq enumerates every length-n sequence over the alphabet, in
// alphabet order (odometer).
func forEachSeq(alphabet []int, n int, fn func([]int)) {
	if n == 0 {
		fn(nil)
		return
	}
	if len(alphabet) == 0 {
		return
	}
	idx := make([]int, n)
	seq := make([]int, n)
	for {
		for i, j := range idx {
			seq[i] = alphabet[j]
		}
		fn(seq)
		k := n - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(alphabet) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

// forEachSubset enumerates every size-k subset of {0..n-1} in lexicographic
// order.
func forEachSubset(n, k int, fn func([]int)) {
	if k > n {
		return
	}
	sub := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(sub)
			return
		}
		for v := start; v <= n-(k-depth); v++ {
			sub[depth] = v
			rec(v+1, depth+1)
		}
	}
	rec(0, 0)
}
