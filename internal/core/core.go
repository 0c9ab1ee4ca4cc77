// Package core assembles the full serverless stack the paper deconstructs
// into one handle: the FaaS platform (§2, §4.1), the BaaS substrates — blob
// storage and a transactional database (§2.2, §4.1) — the orchestration
// engine (§4.2), the Pulsar messaging cluster with Pulsar Functions (§4.3),
// which is also the platform's queue and notification service, and the Jiffy
// ephemeral-state store (§4.4), all sharing one clock and one billing meter.
//
// This is the public API examples and experiments build on; the individual
// subsystem packages stay usable on their own.
package core

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/blob"
	"repro/internal/coord"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/orchestrate"
	"repro/internal/pulsar"
	"repro/internal/simclock"
)

// Options configures a Platform. The zero value is a sensible deployment:
// real clock, 2 brokers, 3 bookies, 4 Jiffy memory nodes of 256 blocks.
type Options struct {
	// Clock drives every subsystem. Default: the real clock. Use
	// simclock.NewVirtual() for deterministic experiments.
	Clock simclock.Clock
	// Brokers is the Pulsar broker count. Default 2.
	Brokers int
	// Bookies is the ledger storage node count. Default 3.
	Bookies int
	// JiffyNodes and BlocksPerNode size the ephemeral memory pool.
	// Defaults 4 and 256.
	JiffyNodes    int
	BlocksPerNode int
	// JiffyBlockSize is bytes per block. Default 64 KiB.
	JiffyBlockSize int
	// PulsarBatchMax is the default producer batch size: how many
	// SendAsync messages a producer buffers, across all partitions, before
	// a flush commits them, one group-commit ledger append per partition.
	// Default 1 (batching off).
	PulsarBatchMax int
	// PulsarFlushInterval bounds buffered-message staleness for batching
	// producers. Default 1ms.
	PulsarFlushInterval time.Duration
	// JiffyLatency models ephemeral access. Default jiffy.MemoryLatency.
	JiffyLatency jiffy.LatencyModel
	// DisableObs turns platform observability off: subsystems get nil
	// instruments and their hot paths pay only a predicted branch. By
	// default a fresh registry on the platform clock is threaded through
	// every subsystem.
	DisableObs bool
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = simclock.Real{}
	}
	if o.Brokers <= 0 {
		o.Brokers = 2
	}
	if o.Bookies <= 0 {
		o.Bookies = 3
	}
	if o.JiffyNodes <= 0 {
		o.JiffyNodes = 4
	}
	if o.BlocksPerNode <= 0 {
		o.BlocksPerNode = 256
	}
	if o.JiffyBlockSize <= 0 {
		o.JiffyBlockSize = 64 << 10
	}
	if o.JiffyLatency == (jiffy.LatencyModel{}) {
		o.JiffyLatency = jiffy.MemoryLatency
	}
	return o
}

// Platform is one serverless deployment: every subsystem on a shared clock
// and meter.
type Platform struct {
	Clock   simclock.Clock
	Meter   *billing.Meter
	Pricing billing.Pricing
	// Obs is the platform's metrics registry and tracer (nil when built with
	// DisableObs).
	Obs *obs.Registry

	// FaaS is the function platform (§4.1).
	FaaS *faas.Platform
	// Blob is the S3-style object store (§2.2).
	Blob *blob.Store
	// DB is the transactional serverless database (§4.1).
	DB *kvdb.DB
	// Coord is the ZooKeeper-style coordination service (§4.3, Fig. 1).
	Coord *coord.Store
	// Ledgers is the BookKeeper-style durable log layer (§4.3, Fig. 1).
	Ledgers *ledger.System
	// Pulsar is the messaging cluster (§4.3); faas.BindTopic binds its
	// topics to functions, the Pulsar Functions of §4.3.1.
	Pulsar *pulsar.Cluster
	// Jiffy is the ephemeral-state store (§4.4, Fig. 2).
	Jiffy *jiffy.Controller
	// Orchestrator composes functions into state machines (§4.2).
	Orchestrator *orchestrate.Engine
	// Autoscaler is the elastic control plane, set by EnableAutoscale
	// (nil until then).
	Autoscaler *autoscale.Controller
	// BrokerLoad is the Pulsar broker load manager, set by
	// EnableBrokerLoadManager (nil until then).
	BrokerLoad *pulsar.LoadManager
}

// New assembles a Platform.
func New(opts Options) *Platform {
	opts = opts.withDefaults()
	clock := opts.Clock
	meter := billing.NewMeter()

	var reg *obs.Registry
	if !opts.DisableObs {
		reg = obs.New(clock)
	}

	meta := coord.NewStore(clock)
	ledgers := ledger.NewSystem(clock, meta)
	for i := 0; i < opts.Bookies; i++ {
		ledgers.AddBookie(ledger.NewBookie(fmt.Sprintf("bookie-%d", i)))
	}
	cluster := pulsar.NewCluster(clock, meta, ledgers, meter, pulsar.ClusterConfig{
		BatchMaxMessages:   opts.PulsarBatchMax,
		BatchFlushInterval: opts.PulsarFlushInterval,
	})
	for i := 0; i < opts.Brokers; i++ {
		cluster.AddBroker(fmt.Sprintf("broker-%d", i))
	}
	jf := jiffy.NewController(clock, meter, jiffy.Config{
		BlockSize: opts.JiffyBlockSize,
		Latency:   opts.JiffyLatency,
	})
	for i := 0; i < opts.JiffyNodes; i++ {
		jf.AddNode(fmt.Sprintf("mem-%d", i), opts.BlocksPerNode)
	}
	fp := faas.New(clock, meter)
	blobStore := blob.New(clock, meter, blob.S3Latency)
	db := kvdb.New(clock, meter)
	engine := orchestrate.NewEngine(fp)

	// Attach instrumentation before any traffic. With DisableObs (nil reg)
	// every subsystem gets nil instruments and stays no-op.
	ledgers.SetObs(reg)
	cluster.SetObs(reg)
	jf.SetObs(reg)
	fp.SetObs(reg)
	blobStore.SetObs(reg)
	db.SetObs(reg)
	engine.SetObs(reg)

	return &Platform{
		Clock:        clock,
		Meter:        meter,
		Pricing:      billing.DefaultPricing(),
		Obs:          reg,
		FaaS:         fp,
		Blob:         blobStore,
		DB:           db,
		Coord:        meta,
		Ledgers:      ledgers,
		Pulsar:       cluster,
		Jiffy:        jf,
		Orchestrator: engine,
	}
}

// EnableAutoscale builds, wires and starts the elastic control plane over
// the platform's FaaS layer and whatever cluster is attached to it (attach
// one first with FaaS.AttachCluster for machine-fleet elasticity). The
// controller ticks on the platform clock until Stop. It is also stored on
// Platform.Autoscaler for state endpoints and demos.
func (p *Platform) EnableAutoscale(cfg autoscale.Config) *autoscale.Controller {
	ctrl := autoscale.New(p.Clock, p.FaaS, p.FaaS.Cluster(), cfg)
	if p.Obs != nil {
		ctrl.SetObs(p.Obs)
	}
	p.Autoscaler = ctrl
	ctrl.Start()
	return ctrl
}

// EnableBrokerLoadManager builds and starts the Pulsar broker load manager
// (DESIGN.md §12): per-partition load sampling, hot-partition reassignment
// through the cursor-exact handoff, and key-range splits when configured.
// The manager is stored on Platform.BrokerLoad for the `/brokers` endpoint
// and demos.
func (p *Platform) EnableBrokerLoadManager(cfg pulsar.LoadManagerConfig) *pulsar.LoadManager {
	lm := p.Pulsar.NewLoadManager(cfg)
	p.BrokerLoad = lm
	lm.Start()
	return lm
}

// Close ends the platform: it closes FaaS, then stops the autoscaler and the
// broker load manager EnableAutoscale and EnableBrokerLoadManager started
// (their loops exit at the next tick). Reads still answer. It is idempotent.
func (p *Platform) Close() {
	p.FaaS.Close()
	if p.Autoscaler != nil {
		p.Autoscaler.Stop()
	}
	if p.BrokerLoad != nil {
		p.BrokerLoad.Stop()
	}
}

// NewVirtual builds a Platform on a fresh virtual clock and returns both.
// The caller drives the simulation with v.Run and Closes the platform after.
func NewVirtual(opts Options) (*Platform, *simclock.Virtual) {
	v := simclock.NewVirtual()
	opts.Clock = v
	return New(opts), v
}

// Elapsed returns the time elapsed on a virtual platform clock (zero on the
// real clock).
func (p *Platform) Elapsed() time.Duration {
	if v, ok := p.Clock.(*simclock.Virtual); ok {
		return v.Elapsed()
	}
	return 0
}
