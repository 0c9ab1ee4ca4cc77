package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/faas"
)

// E24IsolationTech: §6 "Security" — "recent research has focused on
// lightweight isolation between functions on shared hardware via secure
// containers" (Firecracker [29], gVisor [38], Kata [44]); §5.1's USETL [95]
// argues unikernels cut serverless memory and CPU overhead further. The
// lighter the isolation, the cheaper the cold start and the denser the
// packing.
func E24IsolationTech() Table {
	table := Table{
		ID:      "E24",
		Title:   "Isolation technology: cold start, sporadic-traffic p99, packing density",
		Claim:   "§6/[29],[38],[95]: lightweight isolation cuts cold-start latency and per-instance overhead, raising density",
		Columns: []string{"technology", "cold start", "p99 (sporadic)", "instances per 16GiB"},
	}
	// Sporadic traffic: every request arrives past the keep-alive, so each
	// pays the technology's cold start.
	arrivals := make([]time.Duration, 12)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 15 * time.Minute
	}
	for _, iso := range faas.Isolations() {
		p, v := core.NewVirtual(core.Options{})
		cfg := iso.Apply(faas.Config{MemoryMB: 128, WarmStart: time.Millisecond})
		if err := p.Tenant("t").Register("fn", func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			ctx.Work(20 * time.Millisecond)
			return nil, nil
		}, cfg); err != nil {
			panic(err)
		}
		v.Run(func() {
			rep := faas.Drive(p.FaaS, "t", "fn", nil, arrivals)
			rep.Wait()
		})
		st, _ := p.FaaS.StatsFor("t", "fn")
		v.Close()
		table.Rows = append(table.Rows, []string{
			iso.Name,
			iso.ColdStart.String(),
			faas.Percentile(st.Durations, 99).Round(time.Millisecond).String(),
			f("%d", iso.Density(128, 16384)),
		})
	}
	table.Notes = "presets follow published measurements (Firecracker ~125ms boot; unikernels tens of ms); density assumes a 128MB function on a 16GiB machine"
	return table
}
