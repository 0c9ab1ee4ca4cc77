// Command etl reproduces the paper's §3.1 "Data Processing" archetype (and
// the §1 photo-EXIF example): objects landing in blob storage trigger an
// extract function; an orchestrated state machine then transforms the
// extracted records and loads them into the serverless database —
// Extract-Transform-Load, entirely event-driven, with per-step billing and
// no double billing for the composition (§4.2).
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/kvdb"
	"repro/internal/orchestrate"
)

// photo is the synthetic "EXIF" record extracted from uploads.
type photo struct {
	Key     string  `json:"key"`
	Camera  string  `json:"camera"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	SizeKB  int     `json:"size_kb"`
	GridRow int     `json:"grid_row,omitempty"`
	GridCol int     `json:"grid_col,omitempty"`
}

func main() {
	platform, clock := core.NewVirtual(core.Options{})
	acme := platform.Tenant("acme")
	defer platform.Close()

	clock.Run(func() {
		if err := platform.Blob.CreateBucket("photos", "acme"); err != nil {
			log.Fatal(err)
		}
		if err := platform.DB.CreateTable("heatmap", "acme", "cell"); err != nil {
			log.Fatal(err)
		}

		// Extract: parse the synthetic EXIF blob.
		extract := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(15 * time.Millisecond)
			var ev faas.BlobEvent
			if err := json.Unmarshal(payload, &ev); err != nil {
				return nil, err
			}
			data, _, err := platform.Blob.Get(ev.Bucket, ev.Key)
			if err != nil {
				return nil, err
			}
			var p photo
			if err := json.Unmarshal(data, &p); err != nil {
				return nil, err
			}
			p.Key = ev.Key
			return json.Marshal(p)
		}

		// Transform: bucket coordinates into a heat-map grid cell.
		transform := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(5 * time.Millisecond)
			var p photo
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, err
			}
			p.GridRow = int((p.Lat + 90) / 10)
			p.GridCol = int((p.Lon + 180) / 10)
			return json.Marshal(p)
		}

		// Load: transactional upsert of the grid cell counter (§4.1: the
		// DB's transactions keep re-executed functions correct).
		load := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(5 * time.Millisecond)
			var p photo
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, err
			}
			cell := fmt.Sprintf("r%dc%d", p.GridRow, p.GridCol)
			err := platform.DB.RunTxn(func(tx *kvdb.Txn) error {
				row, ok, err := tx.Get("heatmap", cell)
				if err != nil {
					return err
				}
				count := 0
				if ok {
					fmt.Sscanf(row["count"], "%d", &count)
				}
				return tx.Put("heatmap", cell, kvdb.Row{
					"cell":  cell,
					"count": fmt.Sprint(count + 1),
				})
			})
			return payload, err
		}

		for name, h := range map[string]faas.Handler{"extract": extract, "transform": transform, "load": load} {
			if err := platform.Tenant("acme").Register(name, h, faas.Config{MemoryMB: 256}); err != nil {
				log.Fatal(err)
			}
		}

		// The pipeline is a composition — itself a function (§4.2). Its load
		// step retries through the platform's one retry loop: a failed
		// transaction is attempted again after a jittered backoff, a shed
		// one is not.
		if err := platform.Orchestrator.RegisterComposition("etl-pipeline", orchestrate.Chain(
			orchestrate.Task("extract"),
			orchestrate.Task("transform"),
			orchestrate.TaskRetry("load", faas.RetryPolicy{MaxAttempts: 3, Base: 50 * time.Millisecond}),
		)); err != nil {
			log.Fatal(err)
		}

		// Blob uploads drive the pipeline, event-style.
		faas.BindBlob(platform.FaaS, platform.Blob, "photos", acme.Name(), "etl-driver")
		if err := acme.Register("etl-driver", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			return platform.Orchestrator.Execute(acme.Name(), orchestrate.Task("etl-pipeline"), payload, ctx.Trace)
		}, faas.Config{MemoryMB: 128}); err != nil {
			log.Fatal(err)
		}

		// Upload a batch of synthetic photos.
		cameras := []string{"X100", "D850", "R5"}
		for i := 0; i < 30; i++ {
			p := photo{
				Camera: cameras[i%len(cameras)],
				Lat:    float64(i%6)*10 - 25,
				Lon:    float64(i%12)*10 - 55,
				SizeKB: 2048 + 100*i,
			}
			raw, _ := json.Marshal(p)
			if _, err := platform.Blob.Put("photos", fmt.Sprintf("img/%04d.jpg", i), raw, blob.PutOptions{}); err != nil {
				log.Fatal(err)
			}
		}
		clock.Sleep(5 * time.Second) // drain the event-driven pipeline

		// Query the heat map through the secondary index.
		tx := platform.DB.Begin()
		rows, err := tx.Scan("heatmap")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heat map cells populated: %d\n", len(rows))
		var cells []string
		for cell := range rows {
			cells = append(cells, cell)
		}
		sort.Strings(cells)
		total := 0
		for _, cell := range cells {
			var n int
			fmt.Sscanf(rows[cell]["count"], "%d", &n)
			total += n
			fmt.Printf("  %-8s %s photos\n", cell, rows[cell]["count"])
		}
		fmt.Printf("total photos processed: %d\n", total)
	})

	fmt.Println()
	fmt.Print(acme.Invoice())
}
