// Command iot reproduces the paper's §3.1 "Internet of Things" archetype:
// device registration management. Whenever a new IoT device registers (a
// message on a Pulsar topic), a serverless function populates a registry in
// the serverless data store; other functions then query the registry — here
// through a secondary index — and a notification topic fans alerts out to
// interested parties.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/kvdb"
	"repro/internal/pulsar"
)

type registration struct {
	DeviceID string  `json:"device_id"`
	Kind     string  `json:"kind"` // sensor, camera, thermostat
	Firmware string  `json:"firmware"`
	TempC    float64 `json:"temp_c"` // fermentation monitoring, §1
}

func main() {
	platform, clock := core.NewVirtual(core.Options{})
	iotCo := platform.Tenant("iot-co")
	defer clock.Close()

	clock.Run(func() {
		if err := platform.DB.CreateTable("devices", "iot-co", "kind"); err != nil {
			log.Fatal(err)
		}
		for _, topic := range []string{"registrations", "alerts"} {
			if err := platform.Pulsar.CreateTopic(topic, 0); err != nil {
				log.Fatal(err)
			}
		}
		alertsOut, err := platform.Pulsar.CreateProducer("alerts")
		if err != nil {
			log.Fatal(err)
		}
		var alerts []string
		if err := platform.Pulsar.SubscribeFunc("alerts", "notify", func(m pulsar.Message) error {
			alerts = append(alerts, string(m.Payload))
			return nil
		}); err != nil {
			log.Fatal(err)
		}

		// The registration function: triggered per topic message, writes
		// the registry row transactionally and raises alerts for hot
		// fermenters (the Raspberry Pi example from §1).
		register := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(10 * time.Millisecond)
			var r registration
			if err := json.Unmarshal(payload, &r); err != nil {
				return nil, err
			}
			err := platform.DB.RunTxn(func(tx *kvdb.Txn) error {
				return tx.Put("devices", r.DeviceID, kvdb.Row{
					"kind":     r.Kind,
					"firmware": r.Firmware,
					"temp":     fmt.Sprintf("%.1f", r.TempC),
				})
			})
			if err != nil {
				return nil, err
			}
			if r.TempC > 30 {
				_, _ = alertsOut.Send([]byte(fmt.Sprintf("%s overheating: %.1fC", r.DeviceID, r.TempC)))
			}
			return nil, nil
		}
		if err := iotCo.Register("register-device", register, faas.Config{MemoryMB: 128}); err != nil {
			log.Fatal(err)
		}
		if err := faas.BindTopic(platform.FaaS, platform.Pulsar, "registrations", iotCo.Name(), "register-device", ""); err != nil {
			log.Fatal(err)
		}
		registrations, err := platform.Pulsar.CreateProducer("registrations")
		if err != nil {
			log.Fatal(err)
		}

		// Devices come online.
		kinds := []string{"sensor", "camera", "thermostat"}
		for i := 0; i < 24; i++ {
			r := registration{
				DeviceID: fmt.Sprintf("dev-%03d", i),
				Kind:     kinds[i%3],
				Firmware: fmt.Sprintf("v1.%d", i%4),
				TempC:    18 + float64(i),
			}
			raw, _ := json.Marshal(r)
			if _, err := registrations.Send(raw); err != nil {
				log.Fatal(err)
			}
		}
		clock.Sleep(2 * time.Second) // drain the event-driven registrations

		// Query the registry by kind through the secondary index — the
		// "stored registry can then be queried using other serverless
		// functions" step.
		queryFn := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Work(5 * time.Millisecond)
			tx := platform.DB.Begin()
			ids, err := tx.IndexLookup("devices", "kind", string(payload))
			if err != nil {
				return nil, err
			}
			return json.Marshal(ids)
		}
		if err := iotCo.Register("query-devices", queryFn, faas.Config{MemoryMB: 128}); err != nil {
			log.Fatal(err)
		}
		for _, kind := range kinds {
			res, err := iotCo.Invoke("query-devices", []byte(kind))
			if err != nil {
				log.Fatal(err)
			}
			var ids []string
			_ = json.Unmarshal(res.Output, &ids)
			fmt.Printf("%-10s %2d devices: %v ...\n", kind, len(ids), ids[:3])
		}

		sort.Strings(alerts)
		fmt.Printf("\noverheat alerts (%d):\n", len(alerts))
		for _, a := range alerts[:min(3, len(alerts))] {
			fmt.Println("  " + a)
		}
		st, _ := iotCo.Stats("register-device")
		fmt.Printf("\nregistration function: %d invocations, %d cold starts\n", st.Invocations, st.ColdStarts)
	})

	fmt.Println()
	fmt.Print(iotCo.Invoice())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
