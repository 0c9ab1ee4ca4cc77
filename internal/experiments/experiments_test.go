package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// The tests below run each experiment and assert the *shape* of its result —
// the qualitative claim the paper makes — not absolute numbers.

func cell(t *testing.T, tb Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Columns) {
		t.Fatalf("%s: no cell (%d,%d) in\n%s", tb.ID, row, col, tb)
	}
	return tb.Rows[row][col]
}

func numPrefix(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimPrefix(s, "$")
	// Full parse first (handles scientific notation like "1.3e-14").
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	end := len(s)
	for i, r := range s {
		if (r < '0' || r > '9') && r != '.' && r != '-' {
			end = i
			break
		}
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 27 {
		t.Fatalf("experiments = %d, want 27", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
	}
	if _, ok := ByID("e7"); !ok {
		t.Fatal("ByID case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID found nonexistent experiment")
	}
}

func TestE1SavingsGrowWithPeakToMean(t *testing.T) {
	tb := E1CostEfficiency()
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Serverless cost falls as the ratio rises (same peak, less usage);
	// reserved stays flat; savings multiplier must strictly grow.
	prevSavings := 0.0
	for i := 1; i < len(tb.Rows); i++ { // skip ratio=1 (the crossover case)
		s := numPrefix(t, cell(t, tb, i, 4))
		if s <= prevSavings {
			t.Fatalf("savings not increasing at row %d:\n%s", i, tb)
		}
		prevSavings = s
	}
	// At sustained full utilization (ratio 1) reservation should be
	// competitive: savings < the ratio-50 savings by a wide margin.
	first := numPrefix(t, cell(t, tb, 0, 4))
	last := numPrefix(t, cell(t, tb, 4, 4))
	if last < 5*first {
		t.Fatalf("bursty savings %.1f not ≫ steady savings %.1f\n%s", last, first, tb)
	}
}

func TestE2ScalesToZero(t *testing.T) {
	tb := E2Elasticity()
	last := tb.Rows[len(tb.Rows)-1]
	if last[2] != "0" {
		t.Fatalf("final instances = %s, want 0\n%s", last[2], tb)
	}
	// Peak instances > 0 at some burst minute.
	peak := 0
	for _, row := range tb.Rows {
		if n, _ := strconv.Atoi(row[2]); n > peak {
			peak = n
		}
	}
	if peak == 0 {
		t.Fatalf("never scaled up:\n%s", tb)
	}
	// Bursts run over minutes 0–2, 8–10 and 16–18 with a 1-minute
	// keep-alive: every row more than a keep-alive past a burst and before
	// the next one shows an empty pool, with nothing but the clock to empty it.
	for _, row := range tb.Rows {
		switch row[0] {
		case "4", "6", "12", "14", "20", "22":
			if row[2] != "0" {
				t.Errorf("minute %s: %s instances, want 0 (keep-alive lapsed)\n%s", row[0], row[2], tb)
			}
		}
	}
}

func TestE3ColdFractionRisesWithGap(t *testing.T) {
	tb := E3ColdStart()
	firstFrac := numPrefix(t, cell(t, tb, 0, 3))
	lastFrac := numPrefix(t, cell(t, tb, len(tb.Rows)-1, 3))
	if firstFrac > 0.1 {
		t.Fatalf("tight arrivals should be warm: frac %.2f\n%s", firstFrac, tb)
	}
	if lastFrac < 0.99 {
		t.Fatalf("past keep-alive everything should be cold: frac %.2f\n%s", lastFrac, tb)
	}
}

func TestE4JiffyBeatsBlob(t *testing.T) {
	tb := E4EphemeralState()
	for i := range tb.Rows {
		s := numPrefix(t, cell(t, tb, i, 3))
		if s < 5 {
			t.Fatalf("jiffy speedup %.1f < 5 at row %d\n%s", s, i, tb)
		}
	}
}

func TestE5NamespaceIsolation(t *testing.T) {
	tb := E5Isolation()
	if cell(t, tb, 0, 2) != "0" {
		t.Fatalf("jiffy scaling moved tenant B keys:\n%s", tb)
	}
	if numPrefix(t, cell(t, tb, 1, 2)) == 0 {
		t.Fatalf("global space did not disturb tenant B:\n%s", tb)
	}
	if numPrefix(t, cell(t, tb, 0, 1)) == 0 {
		t.Fatalf("jiffy scaling moved no tenant A keys:\n%s", tb)
	}
}

func TestE6EstimatesWithinBound(t *testing.T) {
	tb := E6PulsarSketch()
	for i := range tb.Rows {
		if cell(t, tb, i, 3) != "true" {
			t.Fatalf("estimate out of bound at row %d:\n%s", i, tb)
		}
	}
	// The span is the bound function's 1µs warm start per event, at every
	// GOMAXPROCS (the line EXPERIMENTS.md records).
	const note = "6000 events processed in 6ms simulated (1000000 msg/s through broker+ledger); εN bound = 60"
	if tb.Notes != note {
		t.Fatalf("note = %q, want %q", tb.Notes, note)
	}
}

func TestE7NoDoubleBilling(t *testing.T) {
	tb := E7Orchestration()
	for i := range tb.Rows {
		if cell(t, tb, i, 4) != "false" {
			t.Fatalf("double billing detected:\n%s", tb)
		}
		direct := numPrefix(t, cell(t, tb, i, 2))
		composed := numPrefix(t, cell(t, tb, i, 3))
		if direct != composed {
			t.Fatalf("billing differs: direct %v composed %v\n%s", direct, composed, tb)
		}
	}
}

func TestE8HierarchicalWinsAtScale(t *testing.T) {
	tb := E8Training()
	// At 32 workers the hierarchical speedup must exceed 1.5x.
	last := tb.Rows[len(tb.Rows)-1]
	if s := numPrefix(t, last[3]); s < 1.5 {
		t.Fatalf("hier speedup at 32 workers = %.2f\n%s", s, tb)
	}
	// Losses identical.
	for i := range tb.Rows {
		if cell(t, tb, i, 4) != cell(t, tb, i, 5) {
			t.Fatalf("losses differ at row %d:\n%s", i, tb)
		}
	}
}

func TestE9CodedResilient(t *testing.T) {
	tb := E9Stragglers()
	// At p=0.3 coded must be much faster.
	if s := numPrefix(t, cell(t, tb, 2, 4)); s < 2 {
		t.Fatalf("coded speedup at p=0.3 = %.1f\n%s", s, tb)
	}
}

func TestE10Exact(t *testing.T) {
	tb := E10Matmul()
	for i := range tb.Rows {
		if d := numPrefix(t, cell(t, tb, i, 5)); d > 1e-6 {
			t.Fatalf("numerical error %g too large\n%s", d, tb)
		}
		if r := numPrefix(t, cell(t, tb, i, 4)); r >= 1 {
			t.Fatalf("strassen op ratio %.2f not < 1\n%s", r, tb)
		}
	}
}

func TestE11SharedPoolWins(t *testing.T) {
	tb := E11Multiplexing()
	for i := range tb.Rows {
		if s := numPrefix(t, cell(t, tb, i, 3)); s < 1.5 {
			t.Fatalf("multiplexing saving %.1f < 1.5\n%s", s, tb)
		}
	}
}

func TestE12ComplementaryMinimizesContention(t *testing.T) {
	tb := E12BinPacking()
	cont := map[string]float64{}
	machines := map[string]float64{}
	for i := range tb.Rows {
		cont[cell(t, tb, i, 0)] = numPrefix(t, cell(t, tb, i, 3))
		machines[cell(t, tb, i, 0)] = numPrefix(t, cell(t, tb, i, 1))
	}
	if cont["complementary"] >= cont["first-fit"] {
		t.Fatalf("complementary contention %v >= first-fit %v\n%s", cont["complementary"], cont["first-fit"], tb)
	}
	if machines["complementary"] > machines["first-fit"]*1.2 {
		t.Fatalf("complementary uses too many machines:\n%s", tb)
	}
}

func TestE13LatencyDropsWithChunks(t *testing.T) {
	tb := E13Video()
	// Speedup at 16 chunks ≥ 5x; diminishing at 32 (≤ 2x gain over 16).
	var s16, s32 float64
	for i := range tb.Rows {
		switch cell(t, tb, i, 0) {
		case "16":
			s16 = numPrefix(t, cell(t, tb, i, 2))
		case "32":
			s32 = numPrefix(t, cell(t, tb, i, 2))
		}
	}
	if s16 < 5 {
		t.Fatalf("16-chunk speedup %.1f\n%s", s16, tb)
	}
	if s32 > 2*s16 {
		t.Fatalf("no diminishing returns: s32 %.1f vs s16 %.1f\n%s", s32, s16, tb)
	}
}

func TestE14ExactAndScales(t *testing.T) {
	tb := E14SeqCompare()
	for i := range tb.Rows {
		if cell(t, tb, i, 4) != "true" {
			t.Fatalf("serverless scores differ from serial:\n%s", tb)
		}
	}
	if s := numPrefix(t, cell(t, tb, len(tb.Rows)-1, 3)); s < 4 {
		t.Fatalf("16-worker speedup %.1f < 4\n%s", s, tb)
	}
}

func TestE15NothingLost(t *testing.T) {
	tb := E15PulsarDurability()
	for i := range tb.Rows {
		if cell(t, tb, i, 3) != "0" {
			t.Fatalf("messages lost in phase %s:\n%s", cell(t, tb, i, 0), tb)
		}
	}
	// The geo phase: every published message reaches the remote
	// subscription, and the replicator mirrored each one once.
	geo := len(tb.Rows) - 1
	if len(tb.Rows) != 4 || cell(t, tb, geo, 0) != "geo-replicated" {
		t.Fatalf("want a fourth phase, geo-replicated:\n%s", tb)
	}
	pub := cell(t, tb, geo, 1)
	if pub == "0" || cell(t, tb, geo, 2) != pub {
		t.Fatalf("remote received %s of %s published:\n%s", cell(t, tb, geo, 2), pub, tb)
	}
	if want := "mirrored " + pub + " and dropped 0"; !strings.Contains(tb.Notes, want) {
		t.Fatalf("note %q lacks %q", tb.Notes, want)
	}
}

func TestE16SameBestMuchFaster(t *testing.T) {
	tb := E16Hyperparam()
	if cell(t, tb, 0, 3) != cell(t, tb, 1, 3) || cell(t, tb, 0, 4) != cell(t, tb, 1, 4) {
		t.Fatalf("best config differs between modes:\n%s", tb)
	}
	seq := parseDur(t, cell(t, tb, 0, 2))
	conc := parseDur(t, cell(t, tb, 1, 2))
	if conc*4 > seq {
		t.Fatalf("concurrent %v not ≪ sequential %v\n%s", conc, seq, tb)
	}
}

func TestE17CacheHelps(t *testing.T) {
	tb := E17Inference()
	noCacheP50 := parseDur(t, cell(t, tb, 0, 2))
	cacheP50 := parseDur(t, cell(t, tb, 1, 2))
	if cacheP50*2 > noCacheP50 {
		t.Fatalf("cache p50 %v not ≪ reload p50 %v\n%s", cacheP50, noCacheP50, tb)
	}
}

func TestE18LeaseLifecycle(t *testing.T) {
	tb := E18Leases()
	// The lease rows, then the flush tier: read back after expiry, and
	// rematerialized from a checkpoint after the memory nodes crash.
	wantReadable := []string{"true", "true", "true", "false", "true", "true"}
	if len(tb.Rows) != len(wantReadable) {
		t.Fatalf("%d rows, want %d\n%s", len(tb.Rows), len(wantReadable), tb)
	}
	for i, w := range wantReadable {
		if cell(t, tb, i, 2) != w {
			t.Fatalf("row %d readable = %s, want %s\n%s", i, cell(t, tb, i, 2), w, tb)
		}
	}
	// Blocks return to the pool after expiry.
	first := numPrefix(t, cell(t, tb, 0, 3))
	last := numPrefix(t, cell(t, tb, 3, 3))
	if last <= first {
		t.Fatalf("blocks not reclaimed: %v → %v\n%s", first, last, tb)
	}
	// Nothing reaps by hand: the expiry notification is stamped by the
	// lease's own timer, one nanosecond past the renewed deadline.
	_, rest, _ := strings.Cut(tb.Notes, "renewed at ")
	renewed, rest, _ := strings.Cut(rest, " for 30s, expiry notified at ")
	notified, _, _ := strings.Cut(rest, ";")
	renewedAt, err1 := time.ParseDuration(renewed)
	notifiedAt, err2 := time.ParseDuration(notified)
	if err1 != nil || err2 != nil {
		t.Fatalf("note %q: %v, %v", tb.Notes, err1, err2)
	}
	if want := renewedAt + 30*time.Second + time.Nanosecond; notifiedAt != want {
		t.Fatalf("expiry notified at %v, want the renewed deadline %v + 1ns\n%s", notifiedAt, want-time.Nanosecond, tb)
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

func parseDur(t *testing.T, s string) float64 {
	t.Helper()
	// Parse "1.2s"/"300ms" etc. into seconds.
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("cannot parse duration %q: %v", s, err)
	}
	return d.Seconds()
}

func TestE19DedicatedEliminatesExposure(t *testing.T) {
	tb := E19Security()
	var ded, ff struct{ pairs, machines float64 }
	for i := range tb.Rows {
		switch cell(t, tb, i, 0) {
		case "tenant-dedicated":
			ded.pairs = numPrefix(t, cell(t, tb, i, 2))
			ded.machines = numPrefix(t, cell(t, tb, i, 1))
		case "first-fit":
			ff.pairs = numPrefix(t, cell(t, tb, i, 2))
			ff.machines = numPrefix(t, cell(t, tb, i, 1))
		}
	}
	if ded.pairs != 0 {
		t.Fatalf("tenant-dedicated exposure %v != 0\n%s", ded.pairs, tb)
	}
	if ff.pairs == 0 {
		t.Fatalf("first-fit exposure 0 — no contrast\n%s", tb)
	}
	if ded.machines < ff.machines {
		t.Fatalf("isolation should not use fewer machines\n%s", tb)
	}
}

func TestE20TailLatencyImproves(t *testing.T) {
	tb := E20SLA()
	ratios := map[string]float64{}
	for i := range tb.Rows {
		ratios[cell(t, tb, i, 0)] = parseDur(t, cell(t, tb, i, 3))
	}
	if ratios["complementary"] >= ratios["first-fit"] {
		t.Fatalf("complementary p99 %v not below first-fit %v\n%s",
			ratios["complementary"], ratios["first-fit"], tb)
	}
	if ratios["worst-fit"] > ratios["complementary"] {
		t.Fatalf("spreading should be fastest\n%s", tb)
	}
}

func TestE21OffloadFreesBookies(t *testing.T) {
	tb := E21TieredStorage()
	if cell(t, tb, 0, 3) == "0" {
		t.Fatalf("hot tier should hold bookie entries\n%s", tb)
	}
	if cell(t, tb, 1, 3) != "0" {
		t.Fatalf("offload left bookie entries\n%s", tb)
	}
	hotFirst := parseDur(t, cell(t, tb, 0, 1))
	coldFirst := parseDur(t, cell(t, tb, 1, 1))
	if coldFirst <= hotFirst {
		t.Fatalf("cold first access should cost more: hot %v cold %v\n%s", hotFirst, coldFirst, tb)
	}
}

func TestE22ProvisionedRemovesColdStarts(t *testing.T) {
	tb := E22Provisioned()
	if numPrefix(t, cell(t, tb, 0, 2)) == 0 {
		t.Fatalf("on-demand sporadic traffic should be all cold\n%s", tb)
	}
	if cell(t, tb, 1, 2) != "0" {
		t.Fatalf("provisioned config paid cold starts\n%s", tb)
	}
	p99OnDemand := parseDur(t, cell(t, tb, 0, 4))
	p99Prov := parseDur(t, cell(t, tb, 1, 4))
	if p99Prov*5 > p99OnDemand {
		t.Fatalf("provisioned p99 %v not well below on-demand %v\n%s", p99Prov, p99OnDemand, tb)
	}
}

func TestE23ORAMOverheadLogarithmic(t *testing.T) {
	tb := E23ORAM()
	prevOps := 0.0
	for i := range tb.Rows {
		ops := numPrefix(t, cell(t, tb, i, 2))
		pathLen := numPrefix(t, cell(t, tb, i, 1))
		if ops != 2*pathLen {
			t.Fatalf("ops/access %v != 2×path length %v\n%s", ops, pathLen, tb)
		}
		if ops <= prevOps {
			t.Fatalf("overhead not growing with store size\n%s", tb)
		}
		prevOps = ops
		if s := numPrefix(t, cell(t, tb, i, 5)); s < 5 {
			t.Fatalf("ORAM slowdown %v implausibly low\n%s", s, tb)
		}
	}
}

func TestE24LighterIsolationWins(t *testing.T) {
	tb := E24IsolationTech()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prevP99 := 1e18
	prevDensity := 0.0
	for i := range tb.Rows {
		p99 := parseDur(t, cell(t, tb, i, 2))
		density := numPrefix(t, cell(t, tb, i, 3))
		if p99 >= prevP99 {
			t.Fatalf("p99 not improving down the isolation spectrum\n%s", tb)
		}
		if density <= prevDensity {
			t.Fatalf("density not improving down the spectrum\n%s", tb)
		}
		prevP99, prevDensity = p99, density
	}
	// Unikernel cold p99 must be a small fraction of container p99.
	containerP99 := parseDur(t, cell(t, tb, 0, 2))
	unikernelP99 := parseDur(t, cell(t, tb, 3, 2))
	if unikernelP99*5 > containerP99 {
		t.Fatalf("unikernel p99 %v not ≪ container %v\n%s", unikernelP99, containerP99, tb)
	}
}

func TestE25LadderMonotone(t *testing.T) {
	tb := E25Evolution()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prevCost := 1e18
	prevRatio := 1e18
	for i := range tb.Rows {
		cost := numPrefix(t, cell(t, tb, i, 4))
		ratio := numPrefix(t, cell(t, tb, i, 5))
		if cost > prevCost {
			t.Fatalf("cost not falling down the ladder\n%s", tb)
		}
		if ratio > prevRatio {
			t.Fatalf("paid/used not falling down the ladder\n%s", tb)
		}
		prevCost, prevRatio = cost, ratio
	}
	// Serverless paid/used must approach 1 (fine-grained billing).
	if final := numPrefix(t, cell(t, tb, 3, 5)); final > 1.5 {
		t.Fatalf("serverless paid/used = %v, want ≈1\n%s", final, tb)
	}
}

func TestE26NoAckedWriteLost(t *testing.T) {
	tb := E26ChaosRecovery()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if acked := numPrefix(t, cell(t, tb, i, 1)); acked <= 0 {
			t.Fatalf("%s acked nothing — the workload never ran\n%s", cell(t, tb, i, 0), tb)
		}
		if lost := numPrefix(t, cell(t, tb, i, 2)); lost != numPrefix(t, cell(t, tb, i, 1)) {
			t.Fatalf("%s verified != acked\n%s", cell(t, tb, i, 0), tb)
		}
		if lost := numPrefix(t, cell(t, tb, i, 3)); lost != 0 {
			t.Fatalf("%s lost %v acked writes\n%s", cell(t, tb, i, 0), lost, tb)
		}
	}
	if !strings.Contains(tb.Notes, "identical rerun digest: true") {
		t.Fatalf("chaos run not deterministic: %s", tb.Notes)
	}
	if strings.Contains(tb.Notes, "ledger recoveries 0") || strings.Contains(tb.Notes, "pulsar takeovers 0") {
		t.Fatalf("fault schedule exercised no recoveries: %s", tb.Notes)
	}
}

func TestE27ElasticControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full burst simulations")
	}
	tb := E27Elastic()
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every acceptance row must pass: convergence within the window, panic
	// scale-up, fleet growth, scale-to-zero, drained machines, fairness.
	for i := range tb.Rows {
		if p := cell(t, tb, i, 3); p == "NO" {
			t.Fatalf("criterion failed at row %q:\n%s", cell(t, tb, i, 0), tb)
		}
	}
	// Burst p99 must actually exceed 2× steady — otherwise the convergence
	// row proves nothing.
	steady := parseDur(t, cell(t, tb, 0, 1))
	burst := parseDur(t, cell(t, tb, 1, 1))
	if burst < 2*steady {
		t.Fatalf("burst p99 %v never rose above 2× steady %v — no cold-start pain to converge from\n%s", burst, steady, tb)
	}
	if !strings.Contains(tb.Notes, "identical rerun digest: true") {
		t.Fatalf("burst run not deterministic: %s", tb.Notes)
	}
}
