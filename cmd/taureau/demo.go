package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/blob"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/obs"
	"repro/internal/oram"
	"repro/internal/orchestrate"
	"repro/internal/pulsar"
	"repro/internal/scheduler"
	"repro/internal/simclock"
	"repro/internal/sketch"
	"repro/internal/workload"
)

var demos = map[string]func(io.Writer, *core.Platform, simclock.Clock){
	"invoke":    demoInvoke,
	"pipeline":  demoPipeline,
	"stream":    demoStream,
	"state":     demoState,
	"oram":      demoORAM,
	"burst":     demoBurst,
	"rebalance": demoRebalance,
}

// cmdDemo boots a full in-process deployment on the virtual clock, runs the
// named scenario against it, and prints what happened and what it cost.
func cmdDemo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("taureau demo <name>", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list demos and exit")
		metrics     = fs.Bool("metrics", false, "dump platform metrics after the demo")
		format      = fs.String("format", "text", "metrics dump format: text, prom, or json")
		trace       = fs.Bool("trace", false, "dump collected trace spans as JSON after the demo")
		traceTop    = fs.Int("trace-top", 0, "with -trace: print the N slowest traces (span trees, slowest first) instead of raw JSON")
		traceTenant = fs.String("trace-tenant", "", "with -trace: only traces attributed to this tenant")
		slo         = fs.Bool("slo", false, "print the per-tenant SLO burn-rate report after the demo")
		serve       = fs.String("serve", "", "after the demo, serve /metrics, /metrics.json, /trace, /slo and pprof on this address (e.g. :9090)")
		seed        = fs.Int64("chaos", -1, "seed=N: run the demo under a seeded fault schedule (bookie/broker/jiffy crashes, stragglers, drops); -1 disables")
	)
	// The demo name comes first; everything after it is flags.
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if err := parseFlags(fs, stderr, args); err != nil {
		return err
	}
	if *list {
		names := make([]string, 0, len(demos))
		for n := range demos {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	fn, ok := demos[name]
	if !ok {
		fmt.Fprintf(stderr, "taureau demo: no demo named %q; taureau demo -list names them\n", name)
		return errUsage
	}
	var writeMetrics func(*obs.Registry, io.Writer) error
	switch *format {
	case "text":
		writeMetrics = (*obs.Registry).WriteText
	case "prom":
		writeMetrics = (*obs.Registry).WritePrometheus
	case "json":
		writeMetrics = (*obs.Registry).WriteJSON
	default:
		fmt.Fprintf(stderr, "unknown -format %q; use text, prom, or json\n", *format)
		return errUsage
	}

	platform, clock := core.NewVirtual(core.Options{})
	defer platform.Close()
	var inj *chaos.Injector
	clock.Run(func() {
		if *seed >= 0 {
			inj = startChaos(stdout, platform, clock, *seed)
		}
		fn(stdout, platform, clock)
		if inj != nil {
			inj.Wait()
		}
	})
	if inj != nil {
		fmt.Fprintln(stdout, "\nchaos events applied:")
		for _, line := range inj.Log() {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	fmt.Fprintln(stdout)
	for _, tenant := range platform.Meter.Tenants() {
		fmt.Fprint(stdout, platform.Tenant(tenant).Invoice())
	}
	fmt.Fprintf(stdout, "simulated time: %v\n", clock.Elapsed())

	if *metrics {
		fmt.Fprintln(stdout)
		if err := writeMetrics(platform.Obs, stdout); err != nil {
			return err
		}
	}
	if *trace || *traceTop > 0 || *traceTenant != "" {
		fmt.Fprintln(stdout)
		if *traceTop > 0 || *traceTenant != "" {
			printTraces(stdout, platform.Obs.Tracer(), *traceTop, *traceTenant)
		} else {
			out, err := platform.Obs.Tracer().ExportJSON()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", out)
		}
	}
	if *slo {
		fmt.Fprintln(stdout)
		if err := platform.Obs.SLO().WriteSLOText(stdout); err != nil {
			return err
		}
	}
	if *serve != "" {
		fmt.Fprintf(stdout, "\nserving /metrics, /metrics.json, /trace, /autoscale, /brokers and /debug/pprof on %s (ctrl-c to stop)\n", *serve)
		autoscaleRoute := obs.Route{Pattern: "/autoscale", Handler: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			var st autoscale.Status
			if platform.Autoscaler != nil {
				st = platform.Autoscaler.Status()
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
		}}
		brokersRoute := obs.Route{Pattern: "/brokers", Handler: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			var rep pulsar.LoadReport
			if platform.BrokerLoad != nil {
				rep = platform.BrokerLoad.Report()
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
		}}
		return platform.Obs.Serve(*serve, autoscaleRoute, brokersRoute)
	}
	return nil
}

func demoInvoke(w io.Writer, p *core.Platform, clock simclock.Clock) {
	demo := p.Tenant("demo")
	if err := demo.Register("hello", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(30 * time.Millisecond)
		return []byte(fmt.Sprintf("hello %s", in)), nil
	}, faas.Config{MemoryMB: 256}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := demo.Invoke("hello", []byte(fmt.Sprintf("call-%d", i)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%-16s cold=%-5v latency=%-10v billed=%v\n", res.Output, res.Cold, res.Latency, res.Billed)
	}
}

func demoPipeline(w io.Writer, p *core.Platform, clock simclock.Clock) {
	demo := p.Tenant("demo")
	if err := p.Blob.CreateBucket("in", "demo"); err != nil {
		log.Fatal(err)
	}
	for _, step := range []string{"extract", "transform", "load"} {
		if err := demo.Register(step, func(ctx *faas.Ctx, in []byte) ([]byte, error) {
			ctx.Work(25 * time.Millisecond)
			return append(in, []byte("|"+step)...), nil
		}, faas.Config{MemoryMB: 128}); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.Orchestrator.RegisterComposition("etl", orchestrate.Chain(
		orchestrate.Task("extract"), orchestrate.Task("transform"), orchestrate.Task("load"),
	)); err != nil {
		log.Fatal(err)
	}
	var results []string
	faas.BindBlob(p.FaaS, p.Blob, "in", demo.Name(), "driver")
	if err := demo.Register("driver", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		out, err := p.Orchestrator.Execute(demo.Name(), orchestrate.Task("etl"), in, ctx.Trace)
		if err == nil {
			results = append(results, string(out))
		}
		return out, err
	}, faas.Config{MemoryMB: 128}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Blob.Put("in", fmt.Sprintf("obj-%d", i), []byte("x"), blob.PutOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	clock.Sleep(2 * time.Second)
	fmt.Fprintf(w, "pipeline ran %d times; sample output tail: %q\n", len(results), tail(results))
}

func demoStream(w io.Writer, p *core.Platform, clock simclock.Clock) {
	if err := p.Pulsar.CreateTopic("clicks", 2); err != nil {
		log.Fatal(err)
	}
	cm := sketch.NewCountMinWH(20, 20)
	keys := workload.ZipfKeys(100, 1.5, 2000, 7)
	processed := 0
	done := simclock.NewEvent(clock)
	// A topic-fed instance is not dispatched per request, so it pays a
	// microsecond of hand-off per message, not faas's 1 ms default.
	if err := p.Tenant("analytics").Register("cm", func(_ *faas.Ctx, key []byte) ([]byte, error) {
		cm.Add(string(key), 1)
		if processed++; processed == len(keys) {
			done.Set()
		}
		return nil, nil
	}, faas.Config{WarmStart: time.Microsecond, Prewarm: 1}); err != nil {
		log.Fatal(err)
	}
	if err := faas.BindTopic(p.FaaS, p.Pulsar, "clicks", "analytics", "cm", ""); err != nil {
		log.Fatal(err)
	}
	prod, err := p.Pulsar.CreateProducer("clicks")
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range keys {
		if _, err := prod.SendKey(k, []byte(k)); err != nil {
			log.Fatal(err)
		}
	}
	done.Wait()
	fmt.Fprintf(w, "processed %d events; estimate(key-0) = %d\n", processed, cm.Estimate("key-0"))
}

func demoState(w io.Writer, p *core.Platform, clock simclock.Clock) {
	app, err := p.Jiffy.CreateNamespace("/demo", jiffy.NamespaceOptions{Lease: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	task, err := app.CreateChild("task1", jiffy.NamespaceOptions{Lease: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := task.Put(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
			log.Fatal(err)
		}
	}
	moved, err := task.Scale(+3)
	if err != nil {
		log.Fatal(err)
	}
	out, _ := json.Marshal(map[string]any{
		"namespace":  task.Path(),
		"blocks":     task.Blocks(),
		"used_bytes": task.UsedBytes(),
		"keys_moved": moved,
		"pool_free":  p.Jiffy.FreeBlocks(),
	})
	fmt.Fprintf(w, "after scale(+3): %s\n", out)
	clock.Sleep(2 * time.Minute) // lease lapses; its timer reclaims the blocks
	fmt.Fprintf(w, "after lease expiry: pool free = %d (state reclaimed)\n", p.Jiffy.FreeBlocks())
}

func demoORAM(w io.Writer, p *core.Platform, clock simclock.Clock) {
	if err := p.Blob.CreateBucket("secure", "demo"); err != nil {
		log.Fatal(err)
	}
	client, err := oram.New(p.Blob, "secure", "tree", 64, 7)
	if err != nil {
		log.Fatal(err)
	}
	start := clock.Now()
	if err := client.Write(13, []byte("the bull, plate XI")); err != nil {
		log.Fatal(err)
	}
	writeDur := clock.Now().Sub(start)
	start = clock.Now()
	data, err := client.Read(13)
	if err != nil {
		log.Fatal(err)
	}
	readDur := clock.Now().Sub(start)
	fmt.Fprintf(w, "oram[13] = %q\n", data)
	fmt.Fprintf(w, "each access touched exactly %d buckets (path length %d×2): write %v, read %v\n",
		2*(client.Levels()+1), client.Levels()+1, writeDur.Round(time.Millisecond), readDur.Round(time.Millisecond))
	fmt.Fprintf(w, "the store observed %d reads and %d writes — none reveal which block was used\n",
		client.Reads, client.Writes)
}

// demoBurst drives the elastic control plane (§4.1) with an open-loop 10×
// burst: steady 2 rps, a 20 rps surge, then idle. The autoscaler panics up,
// absorbs the surge, re-converges, and finally scales the function — and the
// machines behind it — back to zero.
func demoBurst(w io.Writer, p *core.Platform, clock simclock.Clock) {
	demo := p.Tenant("demo")
	// A machine fleet so the controller has something to grow and drain:
	// each machine holds four 1000-mCPU instances.
	p.FaaS.AttachCluster(scheduler.NewCluster(scheduler.Resources{CPU: 4000, MemMB: 16384}, scheduler.FirstFit{}), 0)
	if err := demo.Register("api", func(ctx *faas.Ctx, in []byte) ([]byte, error) {
		ctx.Work(250 * time.Millisecond)
		return in, nil
	}, faas.Config{
		MemoryMB:  128,
		ColdStart: 200 * time.Millisecond,
		KeepAlive: 4 * time.Second,
	}); err != nil {
		log.Fatal(err)
	}
	ctrl := p.EnableAutoscale(autoscale.Config{
		TickInterval:     time.Second,
		StableWindow:     20 * time.Second,
		PanicWindow:      3 * time.Second,
		ScaleToZeroAfter: 5 * time.Second,
		DrainDelay:       4 * time.Second,
	})
	defer p.Close()

	const (
		baseRPS = 2.0
		window  = 30 * time.Second
	)
	rf := workload.Burst(baseRPS, 10, 5*time.Second, 5*time.Second)
	// Off-grid arrivals (+500µs) cannot race a same-instant autoscaler tick,
	// which keeps the virtual-clock run deterministic.
	arrivals := workload.OffsetArrivals(workload.Arrivals(rf, window, 42), 500*time.Microsecond)
	fmt.Fprintf(w, "open-loop drive: %.0f rps steady, 10× burst at 5s for 5s — %d arrivals over %v\n",
		baseRPS, len(arrivals), window)

	payloads := make([][]byte, len(arrivals))
	for i := range payloads {
		payloads[i] = []byte("r")
	}
	rep := faas.Drive(p.FaaS, demo.Name(), "api", payloads, arrivals)
	// Sample the controller's desired count while the surge is in flight.
	peakWant := 0
	for i := 0; i < 12; i++ {
		clock.Sleep(time.Second)
		for _, f := range ctrl.Status().Functions {
			if f.Name == "api" && f.Desired > peakWant {
				peakWant = f.Desired
			}
		}
	}
	results, errs := rep.Wait()
	var latencies []time.Duration
	cold := 0
	for i, res := range results {
		if errs[i] != nil {
			continue
		}
		latencies = append(latencies, res.Latency)
		if res.Cold {
			cold++
		}
	}

	p99 := faas.Percentile(latencies, 99)
	fmt.Fprintf(w, "served %d/%d invocations (%d cold starts), p99 %v, peak desired instances %d\n",
		len(latencies), len(arrivals), cold, p99.Round(time.Millisecond), peakWant)

	clock.Sleep(15 * time.Second) // idle: scale-to-zero + machine drain
	st := ctrl.Status()
	pool, _ := p.FaaS.PoolTarget(demo.Name(), "api")
	fmt.Fprintf(w, "after %v idle: pool=%d machines=%d retired=%d (scale-to-zero reclaimed the fleet)\n",
		15*time.Second, pool, st.Machines, st.Retired)
}

// startChaos generates a seeded fault schedule against the platform's
// bookies, brokers and Jiffy nodes and starts replaying it alongside the
// demo. Bookie straggler events are filtered out: the platform's bookie
// fleet is shared with Pulsar, whose brokers append under topic locks, and
// a sleeper holding a lock the injector contends stalls the virtual clock.
func startChaos(w io.Writer, p *core.Platform, clock simclock.Clock, seed int64) *chaos.Injector {
	inj := chaos.NewInjector(clock, p.Ledgers, p.Pulsar, p.Jiffy)
	if p.Obs != nil {
		inj.SetObs(p.Obs)
	}
	sch := chaos.Generate(chaos.Options{
		Seed:       seed,
		Duration:   500 * time.Millisecond,
		Bookies:    p.Ledgers.BookieIDs(),
		Brokers:    p.Pulsar.BrokerIDs(),
		JiffyNodes: p.Jiffy.NodeIDs(),
	})
	filtered := sch[:0]
	for _, e := range sch {
		if e.Kind == chaos.KindBookie && e.Op == chaos.OpSlow {
			continue
		}
		filtered = append(filtered, e)
	}
	fmt.Fprintf(w, "chaos: seed %d, %d faults over 500ms\n\n", seed, len(filtered))
	inj.Run(filtered)
	return inj
}

// printTraces renders retained traces as indented span trees, slowest root
// first — the -trace-top / -trace-tenant view. top <= 0 means "all".
func printTraces(w io.Writer, tr *obs.Tracer, top int, tenant string) {
	traces := tr.Traces()
	if tenant != "" {
		kept := traces[:0]
		for _, t := range traces {
			if t.Tenant == tenant {
				kept = append(kept, t)
			}
		}
		traces = kept
	}
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Duration > traces[j].Duration })
	if top > 0 && len(traces) > top {
		traces = traces[:top]
	}
	if len(traces) == 0 {
		fmt.Fprintln(w, "no matching traces")
		return
	}
	// One pass over the log for every trace printed, not one per trace.
	byTrace := map[int64][]obs.SpanData{}
	for _, sd := range tr.Spans() {
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
	}
	for _, t := range traces {
		errMark := ""
		if t.Err {
			errMark = "  ERR"
		}
		fmt.Fprintf(w, "trace %016x  %-24s tenant=%-12s dur=%-12v spans=%d%s\n",
			uint64(t.TraceID), t.Name, valueOr(t.Tenant, "-"), t.Duration, t.Spans, errMark)
		children := map[int64][]obs.SpanData{}
		for _, sd := range byTrace[t.TraceID] {
			children[sd.ParentID] = append(children[sd.ParentID], sd)
		}
		for pid := range children {
			kids := children[pid]
			sort.Slice(kids, func(i, j int) bool {
				if !kids[i].Start.Equal(kids[j].Start) {
					return kids[i].Start.Before(kids[j].Start)
				}
				return kids[i].Name < kids[j].Name
			})
		}
		var walk func(id int64, depth int)
		walk = func(id int64, depth int) {
			for _, sd := range children[id] {
				mark := ""
				if sd.Err {
					mark = "  ERR"
				}
				fmt.Fprintf(w, "  %*s%-*s %v%s\n", 2*depth, "", 30-2*depth, sd.Name, sd.Duration, mark)
				walk(sd.SpanID, depth+1)
			}
		}
		// Roots are spans whose parent is not in this trace (ParentID 0).
		walk(0, 0)
	}
}

func valueOr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

func tail(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[len(s)-1]
}

// demoRebalance pins a fleet of topics onto one broker, drives skewed
// publish load, and lets the broker load manager spread the hot partitions
// across the cluster through cursor-exact ownership handoffs. With
// -serve :9090 the final /brokers endpoint reports the per-broker load.
func demoRebalance(w io.Writer, p *core.Platform, clock simclock.Clock) {
	topics := []string{"orders", "payments", "carts", "emails", "fraud", "audit"}
	prods := make([]*pulsar.Producer, len(topics))
	for i, tp := range topics {
		if err := p.Pulsar.CreateTopic(tp, 0); err != nil {
			log.Fatal(err)
		}
		if err := p.Pulsar.MoveTopic(tp, "broker-0"); err != nil {
			log.Fatal(err)
		}
		prod, err := p.Pulsar.CreateProducer(tp)
		if err != nil {
			log.Fatal(err)
		}
		prods[i] = prod
	}
	fmt.Fprintf(w, "%d topics pinned to broker-0; load manager sampling every 100ms\n", len(topics))
	lm := p.EnableBrokerLoadManager(pulsar.LoadManagerConfig{
		Interval:       100*time.Millisecond + 333*time.Nanosecond,
		OverloadFactor: 1.1,
		MinMoveRate:    10,
	})
	defer p.Close()

	// Skewed load: topic i publishes (i+1)×50 msg per 100ms round.
	payload := workload.Payload(256, 7)
	for round := 0; round < 10; round++ {
		for i, prod := range prods {
			for n := 0; n < (i+1)*5; n++ {
				if _, err := prod.Send(payload); err != nil {
					log.Fatal(err)
				}
			}
		}
		clock.Sleep(100 * time.Millisecond)
	}

	rep := lm.Report()
	fmt.Fprintf(w, "\nload manager: %d moves\n", rep.Moves)
	for _, ev := range rep.Events {
		fmt.Fprintf(w, "  %-5s %-10s %s → %s\n", ev.Action, ev.Topic, ev.From, ev.To)
	}
	fmt.Fprintln(w)
	for _, b := range rep.Brokers {
		fmt.Fprintf(w, "%-10s topics=%d rate=%.0f msg/s\n", b.ID, b.Topics, b.MsgsPerSec)
	}
}
