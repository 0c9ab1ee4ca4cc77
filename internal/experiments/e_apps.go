package experiments

import (
	"fmt"
	"time"

	"repro/internal/bioseq"
	"repro/internal/core"
	"repro/internal/jiffy"
	"repro/internal/matmul"
	"repro/internal/video"
)

// E10Matmul: §5.1/[181] — "distributed execution of Strassen's algorithm for
// MATMUL in a serverless setting", with "support for ephemeral storage of
// intermediate results (refer to §4.4)".
func E10Matmul() Table {
	table := Table{
		ID:      "E10",
		Title:   "Matrix multiply: serial vs blocked-parallel vs serverless Strassen",
		Claim:   "§5.1/[181]: serverless fan-out with ephemeral intermediates accelerates MATMUL; Strassen needs 7^k not 8^k products",
		Columns: []string{"n", "serial wall", "blocked wall", "strassen wall", "strassen ops/naive", "max |Δ|"},
	}
	perOp := 200 * time.Nanosecond
	for _, n := range []int{64, 128, 256} {
		a, b := matmul.Random(n, n, 20), matmul.Random(n, n, 21)
		want, _ := matmul.Mul(a, b)

		p, v := core.NewVirtual(core.Options{JiffyBlockSize: 8 << 20, JiffyNodes: 8, BlocksPerNode: 512})
		var serialWall, blockedWall, strassenWall time.Duration
		var maxDiff float64
		v.Run(func() {
			root, err := p.Jiffy.CreateNamespace("/mm", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
			if err != nil {
				panic(err)
			}
			nsB, err := root.CreateChild("blocked", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
			if err != nil {
				panic(err)
			}
			nsS, err := root.CreateChild("strassen", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 8})
			if err != nil {
				panic(err)
			}
			// Serial baseline: one function does all n³ scalar ops.
			start := v.Now()
			v.Sleep(time.Duration(int64(n)*int64(n)*int64(n)) * perOp)
			serialWall = v.Now().Sub(start)

			start = v.Now()
			got, err := matmul.MulBlocked(p.FaaS, nsB, a, b, matmul.ServerlessConfig{
				BlockSize: n / 4, WorkPerOp: perOp,
			})
			if err != nil {
				panic(err)
			}
			blockedWall = v.Now().Sub(start)
			maxDiff = matmul.MaxAbsDiff(want, got)

			start = v.Now()
			got2, err := matmul.StrassenServerless(p.FaaS, nsS, a, b, n/4, matmul.ServerlessConfig{WorkPerOp: perOp})
			if err != nil {
				panic(err)
			}
			strassenWall = v.Now().Sub(start)
			if d := matmul.MaxAbsDiff(want, got2); d > maxDiff {
				maxDiff = d
			}
		})
		p.Close()
		naive := int64(n) * int64(n) * int64(n)
		table.Rows = append(table.Rows, []string{
			f("%d", n),
			serialWall.Round(time.Millisecond).String(),
			blockedWall.Round(time.Millisecond).String(),
			strassenWall.Round(time.Millisecond).String(),
			f("%.2f", float64(matmul.StrassenOps(n, n/4))/float64(naive)),
			f("%.1e", maxDiff),
		})
	}
	table.Notes = "blocked: 16 concurrent tile tasks; strassen: 7 concurrent products at 7/8 the op count per level"
	return table
}

// E13Video: §5.1/[97],[71] — ExCamera-style fine-grained parallel video
// encoding: latency drops with chunk parallelism, at the cost of boundary
// key frames (larger output) and stitch overhead (diminishing returns).
func E13Video() Table {
	table := Table{
		ID:      "E13",
		Title:   "Chunk-parallel video encode: latency vs chunks",
		Claim:   "§5.1/[97],[71]: intra-video parallelism achieves low latency; trade-off is output size + stitch overhead",
		Columns: []string{"chunks", "wall", "speedup", "realtime ratio", "output"},
	}
	clip := video.Synthetic(600, 30, 22) // 20s of 30fps video
	var base time.Duration
	for _, chunks := range []int{1, 2, 4, 8, 16, 32} {
		p, v := core.NewVirtual(core.Options{})
		var rep video.Report
		v.Run(func() {
			var err error
			rep, err = video.EncodeParallel(p.FaaS, clip, video.DefaultCost(), chunks)
			if err != nil {
				panic(err)
			}
		})
		p.Close()
		if chunks == 1 {
			base = rep.Wall
		}
		table.Rows = append(table.Rows, []string{
			f("%d", chunks),
			rep.Wall.Round(10 * time.Millisecond).String(),
			f("%.1fx", float64(base)/float64(rep.Wall)),
			f("%.2f", rep.RealTimeRatio),
			fmtBytes(rep.OutputBytes),
		})
	}
	var labels []string
	var vals []float64
	for _, row := range table.Rows {
		labels = append(labels, row[0]+" chunks")
		var ratio float64
		fmt.Sscanf(row[3], "%f", &ratio)
		vals = append(vals, ratio)
	}
	table.Notes = "realtime ratio < 1 means encoding faster than playback — ExCamera's goal; output grows with forced boundary key frames\nrealtime ratio by chunk count:\n" +
		asciiChart(labels, vals, 40, "x")
	return table
}

// E14SeqCompare: §5.1/[150] — "the use of serverless to carry out an
// all-to-all pairwise comparison among all unique human proteins", here on
// synthetic proteins with exact Smith-Waterman scores.
func E14SeqCompare() Table {
	table := Table{
		ID:      "E14",
		Title:   "All-pairs Smith-Waterman over serverless workers",
		Claim:   "§5.1/[150]: all-to-all sequence comparison scales near-linearly over functions, scores exact",
		Columns: []string{"workers", "pairs", "wall", "speedup", "matches serial"},
	}
	seqs := bioseq.RandomProteins(24, 80, 120, 23)
	want := bioseq.AllPairsSerial(seqs, bioseq.DefaultScoring())
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8, 16} {
		p, v := core.NewVirtual(core.Options{})
		var wall time.Duration
		exact := true
		v.Run(func() {
			start := v.Now()
			got, err := bioseq.AllPairsServerless(p.FaaS, seqs, bioseq.DefaultScoring(), bioseq.ServerlessConfig{
				Workers: w, WorkPerCell: 2 * time.Microsecond,
			})
			if err != nil {
				panic(err)
			}
			wall = v.Now().Sub(start)
			for pr, score := range want {
				if got[pr] != score {
					exact = false
				}
			}
		})
		p.Close()
		if w == 1 {
			base = wall
		}
		table.Rows = append(table.Rows, []string{
			f("%d", w), f("%d", len(want)),
			wall.Round(time.Millisecond).String(),
			f("%.1fx", float64(base)/float64(wall)),
			f("%v", exact),
		})
	}
	table.Notes = "alignment scores are bit-identical to the serial baseline at every worker count"
	return table
}
