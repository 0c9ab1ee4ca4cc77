package pulsar

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// LoadManagerConfig tunes the broker load manager's control loop.
type LoadManagerConfig struct {
	// Interval between load samples / decisions. Default 100ms. Tests pick
	// off-grid intervals (a sub-microsecond component) so ticks never
	// coincide with workload instants on the virtual clock.
	Interval time.Duration
	// OverloadFactor: a broker whose publish rate exceeds this multiple of
	// the live-broker mean is overloaded and sheds its hottest partition.
	// Default 1.25.
	OverloadFactor float64
	// MinMoveRate is the smallest per-topic publish rate (msgs/s) worth
	// moving — idle topics stay put. Default 1.
	MinMoveRate float64
}

// loadCooldown is how many ticks a topic rests after being moved
// (its counters reset on handoff, so its measured rate is noise for a tick;
// acting on it again immediately would ping-pong).
const loadCooldown = 2

func (c LoadManagerConfig) withDefaults() LoadManagerConfig {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.OverloadFactor <= 0 {
		c.OverloadFactor = 1.25
	}
	if c.MinMoveRate <= 0 {
		c.MinMoveRate = 1
	}
	return c
}

// LoadEvent is one rebalancing action, for logs, tests and digests.
type LoadEvent struct {
	At     time.Time `json:"at"`
	Action string    `json:"action"` // "move"
	Topic  string    `json:"topic"`  // concrete topic acted on
	From   string    `json:"from,omitempty"`
	To     string    `json:"to,omitempty"`
}

// PartitionLoad is one concrete topic's load as of the last sample.
type PartitionLoad struct {
	Topic       string  `json:"topic"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// BrokerLoad is one broker's aggregate load as of the last sample.
type BrokerLoad struct {
	ID          string          `json:"id"`
	Down        bool            `json:"down"`
	Topics      int             `json:"topics"`
	MsgsPerSec  float64         `json:"msgs_per_sec"`
	BytesPerSec float64         `json:"bytes_per_sec"`
	Partitions  []PartitionLoad `json:"partitions,omitempty"`
}

// LoadReport is the load manager's externally visible state (the taureau
// -serve /brokers endpoint).
type LoadReport struct {
	At      time.Time    `json:"at"`
	Brokers []BrokerLoad `json:"brokers"`
	Moves   int64        `json:"moves"`
	Events  []LoadEvent  `json:"events,omitempty"`
}

// LoadManager is the Pulsar-style broker load manager: it samples
// per-partition publish counters on the cluster clock, reassigns the
// hottest partitions off overloaded brokers through the cursor-exact
// MoveTopic handoff. A partition keeps its key range: like Pulsar's, this
// load manager moves topics and never re-ranges one.
type LoadManager struct {
	c   *Cluster
	cfg LoadManagerConfig

	stopped int32 // atomic
	started bool

	mu     sync.Mutex
	prev   map[string]topicLoadSample // concrete topic → counters at last tick
	cool   map[string]int             // concrete topic → remaining cooldown ticks
	report LoadReport
	events []LoadEvent
	moves  int64 // local total: the obs registry may be absent (nil-safe no-ops)

	obsMoves    *obs.Counter
	obsTicks    *obs.Counter
	obsDecision *obs.CounterVec
}

// NewLoadManager builds a load manager over the cluster. Start launches its
// control loop; Tick steps it manually (tests, demos).
func (c *Cluster) NewLoadManager(cfg LoadManagerConfig) *LoadManager {
	lm := &LoadManager{
		c:    c,
		cfg:  cfg.withDefaults(),
		prev: map[string]topicLoadSample{},
		cool: map[string]int{},
	}
	lm.obsMoves = c.obs.Counter("pulsar.loadmgr.moves")
	lm.obsTicks = c.obs.Counter("pulsar.loadmgr.ticks")
	lm.obsDecision = c.obs.CounterVec("pulsar.loadmgr.decisions", "action")
	return lm
}

// Start launches the control loop on the cluster clock. Idempotent.
func (lm *LoadManager) Start() {
	lm.mu.Lock()
	if lm.started {
		lm.mu.Unlock()
		return
	}
	lm.started = true
	lm.mu.Unlock()
	atomic.StoreInt32(&lm.stopped, 0)
	lm.c.clock.Go(func() {
		for {
			lm.c.clock.Sleep(lm.cfg.Interval)
			if atomic.LoadInt32(&lm.stopped) != 0 {
				return
			}
			lm.Tick()
		}
	})
}

// Stop halts the control loop after its current sleep expires.
func (lm *LoadManager) Stop() {
	atomic.StoreInt32(&lm.stopped, 1)
	lm.mu.Lock()
	lm.started = false
	lm.mu.Unlock()
}

// brokerSnap is one tick's view of a broker.
type brokerSnap struct {
	id     string
	down   bool
	rate   float64 // msgs/s
	topics []topicRate
}

type topicRate struct {
	topic string
	rate  float64 // msgs/s
	bytes float64 // bytes/s
}

// Tick runs one sample-decide-act round. Deterministic: brokers are walked
// in registration order, topics in name order, and every tie breaks
// lexicographically — two runs over the same virtual schedule make the same
// decisions at the same instants.
func (lm *LoadManager) Tick() {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.obsTicks.Inc()

	secs := lm.cfg.Interval.Seconds()
	now := lm.c.clock.Now()
	snaps := lm.sampleLocked(secs)

	// Cooldowns decay once per tick.
	for t, n := range lm.cool {
		if n <= 1 {
			delete(lm.cool, t)
		} else {
			lm.cool[t] = n - 1
		}
	}

	live := make([]*brokerSnap, 0, len(snaps))
	var total float64
	for i := range snaps {
		if !snaps[i].down {
			live = append(live, &snaps[i])
			total += snaps[i].rate
		}
	}
	lm.buildReportLocked(now, snaps)
	if len(live) < 2 {
		return
	}
	mean := total / float64(len(live))

	// Reassignment: shed the hottest eligible partition from the most
	// loaded broker to the least loaded one, when the spread is worth it.
	// One move per tick, so the plane converges in small, observable steps.
	sort.SliceStable(live, func(i, j int) bool { return live[i].rate > live[j].rate })
	src, dst := live[0], live[len(live)-1]
	if src.rate <= mean*lm.cfg.OverloadFactor {
		return
	}
	tr, ok := lm.pickMoveLocked(src, dst)
	if !ok {
		return
	}
	if err := lm.c.MoveTopic(tr.topic, dst.id); err != nil {
		return
	}
	lm.moves++
	lm.obsMoves.Inc()
	lm.obsDecision.With("move").Inc()
	lm.cool[tr.topic] = loadCooldown
	lm.events = append(lm.events, LoadEvent{At: now, Action: "move", Topic: tr.topic, From: src.id, To: dst.id})
}

// sampleLocked reads every broker's counters and converts deltas to rates.
func (lm *LoadManager) sampleLocked(secs float64) []brokerSnap {
	ids := lm.c.BrokerIDs()
	snaps := make([]brokerSnap, 0, len(ids))
	seen := map[string]bool{}
	for _, id := range ids {
		b, _ := lm.c.Broker(id)
		samples, down := b.snapshotLoad()
		snap := brokerSnap{id: id, down: down}
		for _, s := range samples {
			prev := lm.prev[s.Topic]
			dm, db := s.Msgs-prev.Msgs, s.Bytes-prev.Bytes
			if dm < 0 || db < 0 {
				// Counter reset: the topic moved here (or reloaded) since
				// the last sample; its cumulative count restarted at zero.
				dm, db = s.Msgs, s.Bytes
			}
			tr := topicRate{topic: s.Topic, rate: float64(dm) / secs, bytes: float64(db) / secs}
			snap.topics = append(snap.topics, tr)
			snap.rate += tr.rate
			lm.prev[s.Topic] = s
			seen[s.Topic] = true
		}
		snaps = append(snaps, snap)
	}
	// Topics no broker reported (dropped mid-handoff, owner down) keep no
	// stale baseline: their next owner restarts counters from zero.
	for t := range lm.prev {
		if !seen[t] {
			delete(lm.prev, t)
		}
	}
	return snaps
}

// pickMoveLocked selects src's hottest topic whose transfer to dst strictly
// narrows the spread between them.
func (lm *LoadManager) pickMoveLocked(src, dst *brokerSnap) (topicRate, bool) {
	sorted := append([]topicRate(nil), src.topics...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].rate != sorted[j].rate {
			return sorted[i].rate > sorted[j].rate
		}
		return sorted[i].topic < sorted[j].topic
	})
	for _, tr := range sorted {
		if tr.rate < lm.cfg.MinMoveRate || lm.cool[tr.topic] > 0 {
			continue
		}
		if dst.rate+tr.rate >= src.rate {
			continue // would just swap the imbalance
		}
		return tr, true
	}
	return topicRate{}, false
}

// buildReportLocked refreshes the externally visible report and per-broker
// gauges.
func (lm *LoadManager) buildReportLocked(now time.Time, snaps []brokerSnap) {
	rep := LoadReport{At: now, Moves: lm.moves}
	for i := range snaps {
		s := &snaps[i]
		bl := BrokerLoad{ID: s.id, Down: s.down, Topics: len(s.topics), MsgsPerSec: s.rate}
		for _, tr := range s.topics {
			bl.BytesPerSec += tr.bytes
			bl.Partitions = append(bl.Partitions, PartitionLoad{Topic: tr.topic, MsgsPerSec: tr.rate, BytesPerSec: tr.bytes})
		}
		rep.Brokers = append(rep.Brokers, bl)
		lm.c.obs.Gauge("pulsar.broker.msgrate." + s.id).Set(s.rate)
	}
	rep.Events = append([]LoadEvent(nil), lm.events...)
	lm.report = rep
}

// Report returns the load state as of the last tick. The move total and
// the event log are read live (a tick samples before it acts, so the stored
// report would otherwise trail its own tick's decisions by one round).
func (lm *LoadManager) Report() LoadReport {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	rep := lm.report
	rep.Moves = lm.moves
	rep.Events = append([]LoadEvent(nil), lm.events...)
	return rep
}
