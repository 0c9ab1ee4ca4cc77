// Command webapp reproduces the paper's §3.1 "Web Applications" archetype —
// "perhaps the most common use-case for serverless frameworks": static
// content (HTML/CSS) served from the blob store, dynamic requests handled by
// event-driven functions, a product catalogue in the serverless database,
// and shopping-cart session state on the Cloudburst-style stateful layer
// (§4.1, [168]) so that consecutive requests hit a warm instance's local
// cache.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/jiffy"
	"repro/internal/kvdb"
	"repro/internal/stateful"
)

type cartRequest struct {
	Session string `json:"session"`
	Action  string `json:"action"` // "add" | "view"
	Item    string `json:"item,omitempty"`
}

func main() {
	platform, clock := core.NewVirtual(core.Options{})
	shop := platform.Tenant("shop")
	defer platform.Close()

	clock.Run(func() {
		// Static assets live in the blob store.
		if err := platform.Blob.CreateBucket("static", "shop"); err != nil {
			log.Fatal(err)
		}
		for path, body := range map[string]string{
			"index.html": "<html><body>Le Taureau Store</body></html>",
			"style.css":  "body { font-family: sans-serif }",
		} {
			if _, err := platform.Blob.Put("static", path, []byte(body), blob.PutOptions{}); err != nil {
				log.Fatal(err)
			}
		}

		// The catalogue lives in the transactional database.
		if err := platform.DB.CreateTable("products", "shop", "category"); err != nil {
			log.Fatal(err)
		}
		seed := platform.DB.Begin()
		for i, p := range []struct{ id, name, cat, price string }{
			{"p1", "Bull Plate XI print", "art", "120"},
			{"p2", "Serverless mug", "kitchen", "14"},
			{"p3", "Lithograph tee", "apparel", "25"},
		} {
			if err := seed.Put("products", p.id, kvdb.Row{
				"name": p.name, "category": p.cat, "price": p.price,
			}); err != nil {
				log.Fatal(err, i)
			}
		}
		if err := seed.Commit(); err != nil {
			log.Fatal(err)
		}

		// Session state rides the stateful layer over Jiffy.
		ns, err := platform.Jiffy.CreateNamespace("/shop", jiffy.NamespaceOptions{Lease: -1, InitialBlocks: 2})
		if err != nil {
			log.Fatal(err)
		}
		sp := stateful.New(platform.FaaS, ns)

		// GET /static/* — serve from blob.
		if err := shop.Register("serve-static", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(2 * time.Millisecond)
			body, _, err := platform.Blob.Get("static", string(payload))
			return body, err
		}, faas.Config{MemoryMB: 128}); err != nil {
			log.Fatal(err)
		}

		// GET /products?category=X — query through the secondary index.
		if err := shop.Register("list-products", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(5 * time.Millisecond)
			tx := platform.DB.Begin()
			ids, err := tx.IndexLookup("products", "category", string(payload))
			if err != nil {
				return nil, err
			}
			var names []string
			for _, id := range ids {
				row, _, err := tx.Get("products", id)
				if err != nil {
					return nil, err
				}
				names = append(names, fmt.Sprintf("%s ($%s)", row["name"], row["price"]))
			}
			return []byte(strings.Join(names, ", ")), nil
		}, faas.Config{MemoryMB: 128}); err != nil {
			log.Fatal(err)
		}

		// POST /cart — stateful session handling.
		if err := sp.Register("cart", "shop", func(ctx *stateful.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(3 * time.Millisecond)
			var req cartRequest
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			key := "cart/" + req.Session
			var items []string
			if raw, err := ctx.Get(key); err == nil {
				_ = json.Unmarshal(raw, &items)
			} else if !stateful.IsNoKey(err) {
				return nil, err
			}
			if req.Action == "add" {
				items = append(items, req.Item)
				raw, _ := json.Marshal(items)
				if err := ctx.Put(key, raw); err != nil {
					return nil, err
				}
			}
			return []byte(strings.Join(items, " + ")), nil
		}, stateful.Config{
			CacheTTL: time.Minute,
			Function: faas.Config{MemoryMB: 256, KeepAlive: 10 * time.Minute},
		}); err != nil {
			log.Fatal(err)
		}

		// --- Simulated traffic ---
		res, err := shop.Invoke("serve-static", []byte("index.html"))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GET /index.html          → %s (cold=%v, %v)\n", res.Output, res.Cold, res.Latency.Round(time.Millisecond))

		for _, cat := range []string{"art", "apparel"} {
			res, err = shop.Invoke("list-products", []byte(cat))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("GET /products?cat=%-8s→ %s\n", cat, res.Output)
		}

		for _, step := range []cartRequest{
			{Session: "s42", Action: "add", Item: "p1"},
			{Session: "s42", Action: "add", Item: "p2"},
			{Session: "s42", Action: "view"},
		} {
			raw, _ := json.Marshal(step)
			res, err = sp.Invoke("shop", "cart", raw)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("POST /cart %-18s→ cart: %s (%v)\n", step.Action+" "+step.Item, res.Output, res.Latency.Round(time.Millisecond))
		}
		hits, misses := sp.CacheStats()
		fmt.Printf("\nsession-state cache: %d hits, %d misses (warm instance reuses its local copy)\n", hits, misses)
	})

	fmt.Println()
	fmt.Print(shop.Invoice())
}
