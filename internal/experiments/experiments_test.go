package experiments

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/sebs"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the experiments")

// shape is one claim's expected shape, stated once, beside the check that
// holds a table to it. TestExperiments prints both into EXPERIMENTS.md.
type shape struct {
	id    string
	text  string
	check func(Table) error
}

// badTable is what the cell readers panic with when a table lacks a row or a
// cell, or a cell is not the number it should be; holds turns it into the
// check's error.
type badTable struct{ error }

func mustRows(tb Table, n int) {
	if len(tb.Rows) != n {
		panic(badTable{fmt.Errorf("%d rows, want %d", len(tb.Rows), n)})
	}
}

func cell(tb Table, row, col int) string {
	if row < 0 || row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		panic(badTable{fmt.Errorf("no cell (%d,%d)", row, col)})
	}
	return tb.Rows[row][col]
}

// rowOf is the index of the row whose first cell is label.
func rowOf(tb Table, label string) int {
	for i, r := range tb.Rows {
		if len(r) > 0 && r[0] == label {
			return i
		}
	}
	panic(badTable{fmt.Errorf("no row %q", label)})
}

// num reads a cell's leading number: "$0.0025", "38.2x", "1.3e-14".
func num(tb Table, row, col int) float64 {
	s := strings.TrimPrefix(cell(tb, row, col), "$")
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	end := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' && r != '-' })
	if end < 0 {
		end = len(s)
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		panic(badTable{fmt.Errorf("cell (%d,%d): %v", row, col, err)})
	}
	return v
}

// dur reads a duration cell ("300ms", "1.2s") in seconds.
func dur(tb Table, row, col int) float64 {
	d, err := time.ParseDuration(cell(tb, row, col))
	if err != nil {
		panic(badTable{fmt.Errorf("cell (%d,%d): %v", row, col, err)})
	}
	return d.Seconds()
}

// holds runs s's check on tb. A table too malformed to read fails it too.
func (s shape) holds(tb Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			bad, ok := r.(badTable)
			if !ok {
				panic(r)
			}
			err = bad.error
		}
	}()
	return s.check(tb)
}

var shapes = []shape{
	{"E1", "Serverless cost falls strictly as peak/mean rises while the peak-provisioned reservation stays flat; from peak/mean 2 on the savings multiplier rises strictly, and at peak/mean 50 it is at least 5× its peak/mean-1 value.", func(tb Table) error {
		mustRows(tb, 5)
		prev := 0.0 // savings from ratio 2 on, the first above 0
		for i := 1; i < len(tb.Rows); i++ {
			if num(tb, i, 2) >= num(tb, i-1, 2) || cell(tb, i, 3) != cell(tb, 0, 3) {
				return fmt.Errorf("row %d: serverless cost not falling or reservation not flat", i)
			}
			s := num(tb, i, 4)
			if s <= prev {
				return fmt.Errorf("savings not increasing at row %d", i)
			}
			prev = s
		}
		if first, last := num(tb, 0, 4), num(tb, 4, 4); last < 5*first {
			return fmt.Errorf("bursty savings %.1f not ≥5× steady savings %.1f", last, first)
		}
		return nil
	}},
	{"E2", "Instances scale out for each burst (minutes 0–2, 8–10 and 16–18) and return to exactly zero once the 1-minute keep-alive lapses: every sample more than a keep-alive past a burst and before the next shows 0 instances, and so does the last — scale-from-zero and scale-to-zero, with nothing but the clock to empty the pool.", func(tb Table) error {
		for _, m := range []string{"2", "10", "18"} {
			if cell(tb, rowOf(tb, m), 2) == "0" {
				return fmt.Errorf("minute %s: 0 instances in a burst", m)
			}
		}
		for _, m := range []string{"4", "6", "12", "14", "20", "22"} {
			if n := cell(tb, rowOf(tb, m), 2); n != "0" {
				return fmt.Errorf("minute %s: %s instances, want 0 (keep-alive lapsed)", m, n)
			}
		}
		if n := cell(tb, len(tb.Rows)-1, 2); n != "0" {
			return fmt.Errorf("final instances = %s, want 0", n)
		}
		return nil
	}},
	{"E3", "While the inter-arrival gap is inside the 10-minute keep-alive, at most a tenth of the calls are cold; once it exceeds the keep-alive, the cold fraction jumps to ≥0.99 and p50 latency grows more than 10× (250ms cold start + work).", func(tb Table) error {
		last := len(tb.Rows) - 1
		for i := 0; i < last; i++ {
			if frac := num(tb, i, 3); frac > 0.1 {
				return fmt.Errorf("gap %s inside keep-alive: cold fraction %.2f", cell(tb, i, 0), frac)
			}
		}
		if frac := num(tb, last, 3); frac < 0.99 {
			return fmt.Errorf("past keep-alive everything should be cold: fraction %.2f", frac)
		}
		if dur(tb, last, 4) <= 10*dur(tb, 0, 4) {
			return fmt.Errorf("cold p50 %s not >10× warm p50 %s", cell(tb, last, 4), cell(tb, 0, 4))
		}
		return nil
	}},
	{"E4", "Jiffy put+get round trips beat the blob store at every payload (≥5×), by more than an order of magnitude at the smallest, and the gap narrows strictly as payload size grows (transfer cost starts to dominate).", func(tb Table) error {
		for i := range tb.Rows {
			if s := num(tb, i, 3); s < 5 || i > 0 && s >= num(tb, i-1, 3) {
				return fmt.Errorf("row %d: jiffy speedup %.1f below 5× or not narrowing", i, s)
			}
		}
		if s := num(tb, 0, 3); s < 10 {
			return fmt.Errorf("smallest payload: jiffy speedup %.1f < 10×", s)
		}
		return nil
	}},
	{"E5", "Scaling tenant A's namespace moves some of A's keys and exactly zero of B's; scaling the global address space moves keys of both tenants.", func(tb Table) error {
		if cell(tb, 0, 2) != "0" {
			return fmt.Errorf("jiffy scaling moved %s of tenant B's keys", cell(tb, 0, 2))
		}
		if num(tb, 0, 1) == 0 || num(tb, 1, 1) == 0 || num(tb, 1, 2) == 0 {
			return fmt.Errorf("a scaled space moved none of a tenant's keys")
		}
		return nil
	}},
	{"E6", "Every Count-Min estimate is at least its true count and within the εN bound; the stream runs through broker + replicated ledger (its appends priced at zero) into a faas function bound to the topic, whose 1 µs warm start per event sets the span: exactly 6000 events in 6ms simulated, at every GOMAXPROCS.", func(tb Table) error {
		for i := range tb.Rows {
			if cell(tb, i, 3) != "true" || num(tb, i, 2) < num(tb, i, 1) {
				return fmt.Errorf("estimate for %s out of bound", cell(tb, i, 0))
			}
		}
		const note = "6000 events processed in 6ms simulated (1000000 msg/s through broker+ledger); εN bound = 60"
		if tb.Notes != note {
			return fmt.Errorf("note = %q, want %q", tb.Notes, note)
		}
		return nil
	}},
	{"E7", "Composed GB-seconds equal direct GB-seconds exactly for both a chain and a nested parallel workflow — the orchestration layer adds zero billed charge.", func(tb Table) error {
		mustRows(tb, 2)
		for i := range tb.Rows {
			if direct, composed := num(tb, i, 2), num(tb, i, 3); direct != composed || cell(tb, i, 4) != "false" {
				return fmt.Errorf("%s: direct %v composed %v double-billed %s", cell(tb, i, 0), direct, composed, cell(tb, i, 4))
			}
		}
		return nil
	}},
	{"E8", "Flat parameter-server round time grows with workers (pushes serialize); hierarchical aggregation bends the curve, its speedup rising strictly from 8 workers on to ≥1.5× at the last row. Losses are bit-identical across topologies.", func(tb Table) error {
		last := len(tb.Rows) - 1
		if s := num(tb, last, 3); s < 1.5 || dur(tb, last, 1) <= dur(tb, 0, 1) {
			return fmt.Errorf("at %s workers: hier speedup %.2f, flat round not grown", cell(tb, last, 0), s)
		}
		for i := range tb.Rows {
			if cell(tb, i, 4) != cell(tb, i, 5) {
				return fmt.Errorf("losses differ at %s workers", cell(tb, i, 0))
			}
			if i > rowOf(tb, "8") && num(tb, i, 3) <= num(tb, i-1, 3) {
				return fmt.Errorf("hier speedup not rising at %s workers", cell(tb, i, 0))
			}
		}
		return nil
	}},
	{"E9", "Uncoded completion time jumps (≥10×) to the straggler delay as soon as any stripe straggles; 2-replication stays within 2× of the straggler-free time, so at p = 0.3 coded is at least 2× faster.", func(tb Table) error {
		for i := range tb.Rows {
			if dur(tb, i, 2) > 2*dur(tb, 0, 2) {
				return fmt.Errorf("p=%s: coded wall %s not near straggler-free %s", cell(tb, i, 0), cell(tb, i, 2), cell(tb, 0, 2))
			}
			if i > 0 && dur(tb, i, 1) < 10*dur(tb, 0, 1) {
				return fmt.Errorf("p=%s: uncoded wall %s did not jump from %s", cell(tb, i, 0), cell(tb, i, 1), cell(tb, 0, 1))
			}
		}
		if s := num(tb, 2, 4); s < 2 {
			return fmt.Errorf("coded speedup at p=0.3 = %.1f", s)
		}
		return nil
	}},
	{"E10", "Blocked-parallel and serverless Strassen both beat the serial wall time at every size; Strassen's op count is (7/8)^k of naive (below 1); results match the serial product to 1e-6 (~1e-14 in practice).", func(tb Table) error {
		for i := range tb.Rows {
			if d := num(tb, i, 5); d > 1e-6 {
				return fmt.Errorf("n=%s: numerical error %g", cell(tb, i, 0), d)
			}
			if r := num(tb, i, 4); r >= 1 {
				return fmt.Errorf("n=%s: strassen op ratio %.2f not < 1", cell(tb, i, 0), r)
			}
			if serial := dur(tb, i, 1); dur(tb, i, 2) >= serial || dur(tb, i, 3) >= serial {
				return fmt.Errorf("n=%s: a parallel variant no faster than serial", cell(tb, i, 0))
			}
		}
		return nil
	}},
	{"E11", "Dedicated (per-tenant peak) machine-hours grow linearly with tenant count while the shared pool stays flat for staggered bursts — the saving equals the tenant count.", func(tb Table) error {
		for i := range tb.Rows {
			if s := num(tb, i, 3); s < 1.5 || s != num(tb, i, 0) || cell(tb, i, 2) != cell(tb, 0, 2) {
				return fmt.Errorf("%s tenants: saving %.1f, shared %s", cell(tb, i, 0), s, cell(tb, i, 2))
			}
		}
		return nil
	}},
	{"E12", "Complementary packing achieves the lowest time-averaged contention of the four policies on a churning, type-bursty fleet, with at most 1.2× the machines first-fit uses.", func(tb Table) error {
		comp, ff := rowOf(tb, "complementary"), rowOf(tb, "first-fit")
		for i := range tb.Rows {
			if i != comp && num(tb, comp, 3) >= num(tb, i, 3) {
				return fmt.Errorf("complementary contention %v ≥ %s's %v", num(tb, comp, 3), cell(tb, i, 0), num(tb, i, 3))
			}
		}
		if num(tb, comp, 1) > 1.2*num(tb, ff, 1) {
			return fmt.Errorf("complementary uses %v machines, first-fit %v", num(tb, comp, 1), num(tb, ff, 1))
		}
		return nil
	}},
	{"E13", "Encode latency falls strictly with chunk count and the real-time ratio crosses below 1.0; 16 chunks are ≥5× faster than one, with diminishing returns past them (32 chunks gain <2× over 16) from stitch overhead and larger output from forced boundary key frames.", func(tb Table) error {
		for i := 1; i < len(tb.Rows); i++ {
			if dur(tb, i, 1) >= dur(tb, i-1, 1) {
				return fmt.Errorf("wall not falling at %s chunks", cell(tb, i, 0))
			}
		}
		if num(tb, 0, 3) < 1 || num(tb, len(tb.Rows)-1, 3) >= 1 {
			return fmt.Errorf("real-time ratio does not cross below 1.0")
		}
		s16, s32 := num(tb, rowOf(tb, "16"), 2), num(tb, rowOf(tb, "32"), 2)
		if s16 < 5 || s32 > 2*s16 {
			return fmt.Errorf("speedup %.1f at 16 chunks, %.1f at 32", s16, s32)
		}
		return nil
	}},
	{"E14", "Every score is bit-identical to the serial Smith-Waterman baseline, and wall time scales with workers: the most workers are ≥4× faster than one.", func(tb Table) error {
		for i := range tb.Rows {
			if cell(tb, i, 4) != "true" {
				return fmt.Errorf("%s workers: scores differ from serial", cell(tb, i, 0))
			}
		}
		if s := num(tb, len(tb.Rows)-1, 3); s < 4 {
			return fmt.Errorf("%s-worker speedup %.1f < 4", cell(tb, len(tb.Rows)-1, 0), s)
		}
		return nil
	}},
	{"E15", "Zero messages lost in all four phases: steady state, owning-broker kill (ownership migrates, ledgers fenced+recovered), single-bookie kill, and geo-replication into a second region, where every published message reaches the remote subscription and the replicator mirrors each once and dead-letters none.", func(tb Table) error {
		mustRows(tb, 4)
		for i := range tb.Rows {
			if cell(tb, i, 3) != "0" {
				return fmt.Errorf("%s messages lost in phase %s", cell(tb, i, 3), cell(tb, i, 0))
			}
		}
		geo := len(tb.Rows) - 1
		if cell(tb, geo, 0) != "geo-replicated" {
			return fmt.Errorf("last phase is %q, want geo-replicated", cell(tb, geo, 0))
		}
		if pub := cell(tb, geo, 1); pub == "0" || cell(tb, geo, 2) != pub {
			return fmt.Errorf("remote received %s of %s published", cell(tb, geo, 2), pub)
		} else if want := "mirrored " + pub + " and dead-lettered 0"; !strings.Contains(tb.Notes, want) {
			return fmt.Errorf("note %q lacks %q", tb.Notes, want)
		}
		return nil
	}},
	{"E16", "Both modes find the same best configuration; concurrent wall time ≈ the longest single trial instead of the sum, at most a quarter of sequential.", func(tb Table) error {
		if cell(tb, 0, 3) != cell(tb, 1, 3) || cell(tb, 0, 4) != cell(tb, 1, 4) {
			return fmt.Errorf("best config differs between modes")
		}
		if seq, conc := dur(tb, 0, 2), dur(tb, 1, 2); conc*4 > seq {
			return fmt.Errorf("concurrent %vs not ≤¼ of sequential %vs", conc, seq)
		}
		return nil
	}},
	{"E17", "Without the cache every request pays the blob model fetch; with the shared cache only the first does — warm p50 drops by an order of magnitude.", func(tb Table) error {
		if reload, cached := dur(tb, 0, 2), dur(tb, 1, 2); cached*10 > reload {
			return fmt.Errorf("cache p50 %vs not ≤1/10 of reload p50 %vs", cached, reload)
		}
		return nil
	}},
	{"E18", "State outlives its producer exactly until the (renewable) lease expires; the expiry notification fires at the renewed deadline, from the lease's own timer with no reaper, and blocks return to the shared pool. With a flush tier, state outlives both: a FlushOnExpiry namespace's value is read back from the blob store after its lease lapses, and a checkpointed namespace is readable again after its memory nodes crash and it rematerializes.", func(tb Table) error {
		mustRows(tb, 6)
		for i, w := range []string{"true", "true", "true", "false", "true", "true"} {
			if cell(tb, i, 2) != w {
				return fmt.Errorf("row %d readable = %s, want %s", i, cell(tb, i, 2), w)
			}
		}
		if num(tb, 3, 3) <= num(tb, 0, 3) {
			return fmt.Errorf("blocks not reclaimed: %s → %s", cell(tb, 0, 3), cell(tb, 3, 3))
		}
		// The expiry notification is stamped by the lease's own timer, one
		// nanosecond past the renewed deadline.
		_, rest, _ := strings.Cut(tb.Notes, "renewed at ")
		renewed, rest, _ := strings.Cut(rest, " for 30s, expiry notified at ")
		notified, _, _ := strings.Cut(rest, ";")
		renewedAt, err1 := time.ParseDuration(renewed)
		notifiedAt, err2 := time.ParseDuration(notified)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("note %q: %v, %v", tb.Notes, err1, err2)
		}
		if want := renewedAt + 30*time.Second + time.Nanosecond; notifiedAt != want {
			return fmt.Errorf("expiry notified at %v, want the renewed deadline %v + 1ns", notifiedAt, want-time.Nanosecond)
		}
		return nil
	}},
	{"E19", "First-fit consolidates but creates cross-tenant co-resident pairs (side-channel exposure); tenant-dedicated placement reaches zero exposure on no fewer machines than first-fit.", func(tb Table) error {
		ded, ff := rowOf(tb, "tenant-dedicated"), rowOf(tb, "first-fit")
		if num(tb, ded, 2) != 0 || num(tb, ff, 2) == 0 {
			return fmt.Errorf("exposure: tenant-dedicated %s, first-fit %s", cell(tb, ded, 2), cell(tb, ff, 2))
		}
		if num(tb, ded, 1) < num(tb, ff, 1) {
			return fmt.Errorf("isolation used fewer machines than first-fit")
		}
		return nil
	}},
	{"E20", "Dense packing (first-fit) inflates p99 via same-dominant contention; complementary packing has a lower p99; spreading (worst-fit) is no slower than complementary but uses the most machines.", func(tb Table) error {
		ff, comp, wf := rowOf(tb, "first-fit"), rowOf(tb, "complementary"), rowOf(tb, "worst-fit")
		if dur(tb, comp, 3) >= dur(tb, ff, 3) || dur(tb, wf, 3) > dur(tb, comp, 3) {
			return fmt.Errorf("p99: first-fit %s, complementary %s, worst-fit %s", cell(tb, ff, 3), cell(tb, comp, 3), cell(tb, wf, 3))
		}
		for i := range tb.Rows {
			if num(tb, i, 1) > num(tb, wf, 1) {
				return fmt.Errorf("%s uses more machines than worst-fit", cell(tb, i, 0))
			}
		}
		return nil
	}},
	{"E21", "After offload the bookies hold zero entries, where the hot tier held some, and the first cold access pays the blob fetch (~20ms) instead of a ~1ms bookie read, so it is slower than the hot one.", func(tb Table) error {
		if cell(tb, 0, 3) == "0" || cell(tb, 1, 3) != "0" {
			return fmt.Errorf("bookie entries: hot %s, after offload %s", cell(tb, 0, 3), cell(tb, 1, 3))
		}
		if hot, cold := dur(tb, 0, 1), dur(tb, 1, 1); cold <= hot {
			return fmt.Errorf("cold first access %vs no slower than hot %vs", cold, hot)
		}
		return nil
	}},
	{"E22", "On-demand sporadic traffic pays a cold start on every request; provisioned concurrency eliminates cold starts entirely, with a p99 at most a fifth of on-demand's, while holding standing instances.", func(tb Table) error {
		if cell(tb, 0, 2) == "0" || cell(tb, 0, 2) != cell(tb, 0, 1) || cell(tb, 1, 2) != "0" {
			return fmt.Errorf("cold starts: on-demand %s of %s, provisioned %s", cell(tb, 0, 2), cell(tb, 0, 1), cell(tb, 1, 2))
		}
		if onDemand, prov := dur(tb, 0, 4), dur(tb, 1, 4); prov*5 > onDemand {
			return fmt.Errorf("provisioned p99 %vs not ≤⅕ of on-demand %vs", prov, onDemand)
		}
		return nil
	}},
	{"E23", "Each access costs exactly 2(L+1) bucket transfers regardless of the block or operation — the uniform-path property — so overhead grows strictly (logarithmically) with store size; the latency multiplier vs direct access (≥5×) is the measured price of pattern hiding.", func(tb Table) error {
		for i := range tb.Rows {
			if ops := num(tb, i, 2); ops <= 0 || ops != 2*num(tb, i, 1) || i > 0 && ops <= num(tb, i-1, 2) {
				return fmt.Errorf("%s blocks: %v ops/access, path length %s", cell(tb, i, 0), ops, cell(tb, i, 1))
			}
			if s := num(tb, i, 5); s < 5 {
				return fmt.Errorf("%s blocks: ORAM slowdown %v implausibly low", cell(tb, i, 0), s)
			}
		}
		return nil
	}},
	{"E24", "Cold start and sporadic-traffic p99 fall strictly from containers through gVisor and Firecracker microVMs to unikernels, whose p99 is at most a fifth of a container's, while packing density rises strictly — the lightweight-isolation direction §6 points at.", func(tb Table) error {
		mustRows(tb, 4)
		if num(tb, 0, 3) <= 0 {
			return fmt.Errorf("container density %s", cell(tb, 0, 3))
		}
		for i := 1; i < 4; i++ {
			if dur(tb, i, 1) >= dur(tb, i-1, 1) || dur(tb, i, 2) >= dur(tb, i-1, 2) || num(tb, i, 3) <= num(tb, i-1, 3) {
				return fmt.Errorf("%s: cold start, p99 or density not improving", cell(tb, i, 0))
			}
		}
		if container, unikernel := dur(tb, 0, 2), dur(tb, 3, 2); unikernel*5 > container {
			return fmt.Errorf("unikernel p99 %vs not ≤⅕ of container %vs", unikernel, container)
		}
		return nil
	}},
	{"E25", "Down the ladder — bare metal, VMs, containers, FaaS — provisioning time and the billing granule fall strictly (weeks to milliseconds, a month to 100ms); monthly cost and the paid/used ratio never rise, with serverless paying within 1.5× of use.", func(tb Table) error {
		mustRows(tb, 4)
		for i := 1; i < 4; i++ {
			if dur(tb, i, 1) >= dur(tb, i-1, 1) || dur(tb, i, 2) >= dur(tb, i-1, 2) {
				return fmt.Errorf("%s: provisioning or granule not shrinking", cell(tb, i, 0))
			}
			if num(tb, i, 4) > num(tb, i-1, 4) || num(tb, i, 5) > num(tb, i-1, 5) {
				return fmt.Errorf("%s: cost or paid/used rising", cell(tb, i, 0))
			}
		}
		if final := num(tb, 3, 5); final > 1.5 {
			return fmt.Errorf("serverless paid/used = %v, want ≈1", final)
		}
		return nil
	}},
	{"E26", "Every acked write survives the seeded fault schedule — ledger entries re-read exactly, Jiffy KV and FIFO state intact after node loss, no acked publish undelivered across broker takeover — the schedule forces ledger recoveries and a Pulsar takeover, and two runs with the same seed produce byte-identical digests (the chaos plane is deterministic).", func(tb Table) error {
		mustRows(tb, 4)
		for i := range tb.Rows {
			if acked := num(tb, i, 1); acked <= 0 || num(tb, i, 2) != acked || num(tb, i, 3) != 0 {
				return fmt.Errorf("%s: acked %s, verified %s, lost %s", cell(tb, i, 0), cell(tb, i, 1), cell(tb, i, 2), cell(tb, i, 3))
			}
		}
		if !strings.Contains(tb.Notes, "identical rerun digest: true") {
			return fmt.Errorf("chaos run not deterministic: %s", tb.Notes)
		}
		if strings.Contains(tb.Notes, "ledger recoveries 0") || strings.Contains(tb.Notes, "pulsar takeovers 0") {
			return fmt.Errorf("fault schedule exercised no recoveries: %s", tb.Notes)
		}
		return nil
	}},
	{"E27", "Under a 10× open-loop burst p99 rises above 2× the warm steady-state baseline, and the panic window scales the pool up so p99 returns to ≤2× it while the burst is still running; after idle, scale-to-zero reclaims every instance and the drain loop every machine. Fair-share admission sheds the flooding tenant (shed > 0) while the well-behaved tenant's p99 stays within 1.5× of running alone — and two runs with the same seed produce byte-identical digests.", func(tb Table) error {
		mustRows(tb, 9)
		for i := range tb.Rows {
			if cell(tb, i, 3) == "NO" {
				return fmt.Errorf("criterion failed at row %q", cell(tb, i, 0))
			}
		}
		if steady, burst := dur(tb, 0, 1), dur(tb, 1, 1); burst < 2*steady {
			return fmt.Errorf("burst p99 %vs never rose above 2× steady %vs", burst, steady)
		}
		if !strings.Contains(tb.Notes, "identical rerun digest: true") {
			return fmt.Errorf("burst run not deterministic: %s", tb.Notes)
		}
		return nil
	}},
	{"SeBS", "Every app: 12 requests, no errors and exactly 2 cold starts (request 0 and the forced gap before request 10), with 0 < p50 < p95 ≤ p99: the forced cold starts sit in the tail; webapp the costliest per 1k invocations, as it touches the database and the blob store on every request.", func(tb Table) error {
		for i := range tb.Rows {
			if cell(tb, i, 1) != "12" || cell(tb, i, 2) != "0" || cell(tb, i, 3) != "2" {
				return fmt.Errorf("%s: %s requests, %s errors, %s colds", cell(tb, i, 0), cell(tb, i, 1), cell(tb, i, 2), cell(tb, i, 3))
			}
			if p50, p95, p99 := num(tb, i, 4), num(tb, i, 5), num(tb, i, 6); p50 <= 0 || p50 >= p95 || p95 > p99 {
				return fmt.Errorf("%s: percentiles out of order: %v %v %v", cell(tb, i, 0), p50, p95, p99)
			}
			if web := rowOf(tb, "webapp"); i != web && num(tb, i, 7) >= num(tb, web, 7) {
				return fmt.Errorf("%s costs %s per 1k, webapp %s", cell(tb, i, 0), cell(tb, i, 7), cell(tb, web, 7))
			}
		}
		return nil
	}},
}

// sebsTable is the SeBS suite's report at 12 requests an app, as a table.
func sebsTable(t *testing.T) Table {
	rep, err := sebs.Run(sebs.Config{Requests: 12})
	if err != nil {
		t.Fatal(err)
	}
	tb := Table{
		ID: "SeBS", Title: "end-to-end suite through the HTTP gateway",
		Claim:   "§2/§6 and SeBS (arXiv 2012.14132): serverless deployability is only real if latency, billing and cold-start behaviour hold up through the public API — register, invoke and read the bill over REST — not just through in-process calls",
		Columns: []string{"app", "requests", "errors", "colds", "p50_ms", "p95_ms", "p99_ms", "$/1k"},
		Notes:   "sebs.Run (taureau sebs -requests 12), one tenant an app; latency is the virtual-clock figure in X-Taureau-Result, cost the tenant's whole invoice; the HTTP tax itself is priced by the benchmark's gw-echo, layer by layer in DESIGN.md §14",
	}
	ms := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, a := range rep.Apps {
		tb.Rows = append(tb.Rows, []string{a.App, strconv.Itoa(a.Requests), strconv.Itoa(a.Errors), strconv.Itoa(a.ColdStarts),
			ms(a.P50Ms), ms(a.P95Ms), ms(a.P99Ms), ms(a.CostPer1kUSD)})
	}
	return tb
}

// ran holds the tables TestExperiments checked, so the tests after it read
// them rather than run an experiment twice.
var ran = map[string]Table{}

func tableOf(t *testing.T, id string) Table {
	if tb, ok := ran[id]; ok {
		return tb
	}
	if id == "SeBS" {
		ran[id] = sebsTable(t)
	} else {
		e, _ := ByID(id)
		ran[id] = e.Run()
	}
	return ran[id]
}

func verdict(id string, err error) string {
	if err != nil {
		return fmt.Sprintf("**Verdict.** Shape NOT reproduced: %v (`TestExperiments/%s`).", err, id)
	}
	return fmt.Sprintf("**Verdict.** Shape reproduced (checked by `TestExperiments/%s`).", id)
}

// section is one experiment's part of EXPERIMENTS.md.
func section(tb Table, s shape, err error) string {
	measured := strings.SplitN(tb.String(), "\n", 3)[2] // past the title and claim lines
	return fmt.Sprintf("## %s: %s\n\n**Claim.** %s\n\n**Expected shape.** %s\n\n**Measured.**\n\n```\n%s\n```\n%s\n",
		tb.ID, tb.Title, tb.Claim, s.text, strings.TrimRightFunc(measured, unicode.IsSpace), verdict(s.id, err))
}

// TestExperiments runs every experiment once, holds its table to its
// expected shape (one subtest an ID), and requires EXPERIMENTS.md from
// "## E1:" on to be exactly what the run renders: claim, shape, table and
// verdict. The preamble before it is hand-written. Regenerate with
// `go test ./internal/experiments -run TestExperiments -update`.
func TestExperiments(t *testing.T) {
	sections := make([]string, len(shapes))
	for i, s := range shapes {
		t.Run(s.id, func(t *testing.T) {
			delete(ran, s.id)
			tb := tableOf(t, s.id)
			err := s.holds(tb)
			if err != nil {
				t.Errorf("%v\n%s", err, tb)
			}
			sections[i] = section(tb, s, err)
		})
	}
	if slices.Contains(sections, "") {
		return // a -run filter skipped some: nothing whole to compare
	}
	const path = "../../EXPERIMENTS.md"
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	preamble, _, ok := strings.Cut(string(file), "\n## E1:")
	if !ok {
		t.Fatalf("%s has no \"## E1:\" section", path)
	}
	got := preamble + "\n" + strings.Join(sections, "\n")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(file), "\n")
	n := 0
	for n < len(g) && n < len(w) && g[n] == w[n] {
		n++
	}
	if n < len(g) || n < len(w) {
		at := func(ls []string) string {
			if n < len(ls) {
				return ls[n]
			}
			return "(end of file)"
		}
		t.Errorf("EXPERIMENTS.md is stale at line %d:\n  file: %q\n  run:  %q\nregenerate with `go test ./internal/experiments -run TestExperiments -update`", n+1, at(w), at(g))
	}
}

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 27 || len(shapes) != len(all)+1 || shapes[len(all)].id != "SeBS" {
		t.Fatalf("%d experiments, %d shapes: want 27, and one more for SeBS", len(all), len(shapes))
	}
	for i, s := range shapes {
		if i < len(all) && (all[i].ID != "E"+strconv.Itoa(i+1) || s.id != all[i].ID) {
			t.Fatalf("experiment %d is %s with shape %s, want E%d", i, all[i].ID, s.id, i+1)
		}
		if tb := tableOf(t, s.id); s.text == "" || s.check == nil || tb.Claim == "" {
			t.Errorf("%s: claim %q, shape %q, check set %v", s.id, tb.Claim, s.text, s.check != nil)
		}
	}
	if _, ok := ByID("e7"); !ok {
		t.Fatal("ByID case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID found nonexistent experiment")
	}
}

// TestChecksCatchMutatedCells feeds five checks their real table with one
// cell changed: each must fail, and its verdict line must say so.
func TestChecksCatchMutatedCells(t *testing.T) {
	for _, m := range []struct {
		id       string
		row, col int
		to, what string
	}{
		{"E5", 0, 2, "1", "one of B's keys moved"},
		{"E7", 0, 3, "0.4000", "composed ≠ direct"},
		{"E9", 2, 4, "1.9x", "coded speedup below 2"},
		{"E15", 1, 3, "1", "one message lost"},
		{"E21", 1, 1, "1ms", "cold first read no slower than hot"},
	} {
		s := shapes[slices.IndexFunc(shapes, func(s shape) bool { return s.id == m.id })]
		tb := tableOf(t, m.id)
		if err := s.holds(tb); err != nil {
			t.Fatalf("%s: the real table fails: %v", m.id, err)
		}
		mut := tb
		mut.Rows = make([][]string, len(tb.Rows))
		for i, r := range tb.Rows {
			mut.Rows[i] = slices.Clone(r)
		}
		mut.Rows[m.row][m.col] = m.to
		err := s.holds(mut)
		if v := verdict(m.id, err); err == nil || !strings.HasPrefix(v, "**Verdict.** Shape NOT reproduced: ") {
			t.Errorf("%s with %s: check passed, verdict %q", m.id, m.what, v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   "n",
	}
	s := tb.String()
	for _, want := range []string{"EX", "demo", "claim: c", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}
