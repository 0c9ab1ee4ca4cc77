package experiments

import (
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/oram"
)

// E23ORAM: §6 "Security" — "increased network communications incentivizes
// the exploration of security primitives that hide network access patterns
// in the cloud, e.g., using ORAMs [169]". Path ORAM makes every access touch
// one uniform root-to-leaf path; this experiment measures the price:
// bandwidth amplification and latency versus direct blob access, across
// store sizes.
func E23ORAM() Table {
	table := Table{
		ID:      "E23",
		Title:   "Path ORAM over the blob store: overhead of hiding access patterns",
		Claim:   "§6/[169]: ORAM hides which block is accessed at a logarithmic bandwidth/latency cost",
		Columns: []string{"blocks", "path len", "store ops/access", "oram access", "direct access", "slowdown"},
	}
	for _, n := range []int{64, 512, 2048} {
		p, v := core.NewVirtual(core.Options{})
		var pathLen int
		var opsPerAccess float64
		var oramDur, directDur time.Duration
		v.Run(func() {
			if err := p.Blob.CreateBucket("oram", "sec"); err != nil {
				panic(err)
			}
			c, err := oram.New(p.Blob, "oram", "tree", n, 42)
			if err != nil {
				panic(err)
			}
			pathLen = c.Levels() + 1
			const accesses = 20
			r0, w0 := c.Reads, c.Writes
			start := v.Now()
			for i := 0; i < accesses; i++ {
				if err := c.Write(int64(i%n), []byte("payload-0123456789")); err != nil {
					panic(err)
				}
			}
			oramDur = v.Now().Sub(start) / accesses
			opsPerAccess = float64((c.Reads-r0)+(c.Writes-w0)) / accesses

			// Direct baseline: one blob put per logical write.
			start = v.Now()
			for i := 0; i < accesses; i++ {
				if _, err := p.Blob.Put("oram", fmt.Sprintf("direct/%d", i%n), []byte("payload-0123456789"), blob.PutOptions{}); err != nil {
					panic(err)
				}
			}
			directDur = v.Now().Sub(start) / accesses
		})
		p.Close()
		table.Rows = append(table.Rows, []string{
			f("%d", n), f("%d", pathLen), f("%.0f", opsPerAccess),
			oramDur.Round(time.Millisecond).String(),
			directDur.Round(time.Millisecond).String(),
			f("%.0fx", float64(oramDur)/float64(directDur)),
		})
	}
	table.Notes = "every ORAM access costs 2(L+1) bucket transfers regardless of which block is touched; overhead grows logarithmically with store size"
	return table
}
