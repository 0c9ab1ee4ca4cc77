package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what one round of one workload is given. A round builds its own
// platform, warms it up, measures a fixed number of ops and checks them, so
// rounds are independent and a slow stretch of the machine costs one round.
type env struct {
	seed    int64
	round   int
	scale   float64 // share of the nominal op counts to run (1 at the default -seconds)
	clients int     // load-generator connections / worker goroutines
	tr      *tracer // nil when the benchmark's spans are off
}

// size scales a nominal op count, keeping it a positive multiple of unit.
func (e env) size(nominal, unit int) int {
	n := int(float64(nominal)*e.scale) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// roundSeed derives the round's input seed: same -seed, same inputs.
func (e env) roundSeed() int64 { return e.seed*1_000_003 + int64(e.round) }

// roundResult is what one round measured. Latencies are nanoseconds per op.
type roundResult struct {
	setup     time.Duration // platform build + registration + input generation + warm-up
	wall      time.Duration // the timed phase
	cpu       time.Duration // process user+sys CPU over the timed phase
	mallocs   uint64        // heap allocations over the timed phase, whole process
	allocated uint64        // and the bytes they asked for
	heapStart uint64        // live heap (after a forced GC) before the timed phase
	heapEnd   uint64        // and after it, the platform still referenced
	attempted int
	failed    int       // ops that errored or failed a correctness check
	lat       []float64 // one sample per op (or per fixed group of ops, already divided)
	late      []float64 // open loop: how late each burst was released
	queueWait []float64 // open loop: due instant → a worker picked the op up
	// closed loop: ops/s of one client over each fixed-size chunk of its
	// ops, and how many clients ran side by side
	chunkRates  []float64
	loopClients int
	layer       map[string]float64
	firstErr    string

	// Filled by reduce from the samples above.
	p50, tail float64
	tailOK    bool
	rate      float64 // correct ops per second
}

// reduce turns the round's samples into its summary figures and lets the
// samples go: kept, they would count towards the next round's live heap.
func (r *roundResult) reduce(w *workload) {
	// A closed loop's rate is the median over fixed-size chunks of ops,
	// times the clients running side by side: a stall of the machine
	// lands in a few chunks, not in the round's figure. An open loop's rate
	// is set by its schedule; what it completed over the wall time says
	// whether it kept up.
	okShare := float64(r.attempted-min(r.failed, r.attempted)) / float64(r.attempted)
	r.rate = okShare * float64(r.attempted) / r.wall.Seconds()
	if len(r.chunkRates) > 0 {
		r.rate = okShare * median(r.chunkRates) * float64(r.loopClients)
		r.chunkRates = nil
	}
	r.layer["driver.backlog_growth_ratio"] = medianOfQuarters(r.lat)
	if len(r.queueWait) > 0 {
		r.layer["driver.queue_wait_p50_us"] = median(r.queueWait) / 1e3
		r.queueWait = nil
	}
	sort.Float64s(r.lat)
	r.p50, _ = percentile(r.lat, 50)
	if w.tailPct > 0 {
		r.tail, r.tailOK = percentile(r.lat, w.tailPct)
		r.lat = nil
	}
}

// fail counts n ops as failed and keeps the first reason for the report.
func (r *roundResult) fail(n int, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.failed += n
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// reconcile is the counter form of a correctness check: a platform counter
// read back through public API must equal what the generator did.
func (r *roundResult) reconcile(what string, got, want int64) {
	if got != want {
		d := got - want
		if d < 0 {
			d = -d
		}
		r.fail(int(d), "%s = %d, want %d", what, got, want)
	}
}

// meter brackets a timed phase.
type meter struct {
	t0        time.Time
	cpu0      time.Duration
	mallocs   uint64
	allocated uint64
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin ends the round's set-up (r.setup is everything since t0) and starts
// the timed phase on a freshly collected heap.
func (r *roundResult) begin(t0 time.Time) meter {
	r.setup = time.Since(t0)
	r.heapStart = liveHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuTime(), mallocs: ms.Mallocs, allocated: ms.TotalAlloc}
}

// end closes the timed phase. Call it while the platform is still
// referenced: heapEnd is what the ops left behind.
func (r *roundResult) end(m meter) {
	r.wall = time.Since(m.t0)
	r.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.mallocs
	r.allocated = ms.TotalAlloc - m.allocated
	r.heapEnd = liveHeap()
}

// stamp writes the op id into the first 8 bytes of a payload, so the
// benchmark's handler wrapper can name the op its span belongs to, and so no
// two ops carry the same bytes.
func stamp(payload []byte, op uint64) { binary.BigEndian.PutUint64(payload, op) }

func stampedOp(payload []byte) uint64 {
	if len(payload) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(payload)
}

// medianOfQuarters returns the median of the last quarter of vs divided by
// the median of the first quarter: above 1, later ops waited longer than
// earlier ones — a backlog was growing.
func medianOfQuarters(vs []float64) float64 {
	q := len(vs) / 4
	if q == 0 {
		return 1
	}
	first := median(vs[:q])
	if first == 0 {
		return 1
	}
	return median(vs[len(vs)-q:]) / first
}
