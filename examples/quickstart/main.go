// Quickstart: wire a complete SWAMP platform for the MATOPIBA pilot, push
// one round of sensor readings through MQTT → IoT agent → context broker,
// run one fog decision cycle, and print what the platform saw and decided.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/swamp-project/swamp/internal/core"
	"github.com/swamp-project/swamp/internal/ngsi"
)

func main() {
	// One call wires the full stack: MQTT broker, IoT agent, NGSI context
	// broker, identity/OAuth/PEP security, anomaly engine, fog node, soil
	// field, weather and the provisioned devices of the pilot.
	platform, err := core.New(core.Options{
		Pilot: core.PilotMATOPIBA,
		Mode:  core.ModeFarmFog,
		Seed:  42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()

	// Dry the field a little so there is something to decide about.
	for i := 0; i < 60; i++ {
		if _, err := platform.Field.StepAll(6, 0, nil); err != nil {
			log.Fatal(err)
		}
	}

	// Northbound: every soil probe samples the (simulated) field and
	// publishes UltraLight payloads over MQTT; the agent decodes them into
	// NGSI entities.
	at := time.Now()
	if err := platform.PumpOnce(at, 5*time.Second); err != nil {
		log.Fatal(err)
	}
	res, err := platform.Context.Query(ngsi.Query{IDPattern: "urn:swamp:matopiba:probe:*", OrderBy: ngsi.OrderByID})
	if err != nil {
		log.Fatal(err)
	}
	entities := res.Entities
	fmt.Printf("context broker holds %d probe entities; first one:\n", len(entities))
	for _, name := range entities[0].AttrNames() {
		v, _ := entities[0].Attrs[name].Float()
		fmt.Printf("  %-22s = %.3f\n", name, v)
	}

	// Give the fog node a moment to ingest the notifications, then run
	// one local decision cycle.
	time.Sleep(100 * time.Millisecond)
	cmds, err := platform.DecideOnce(at)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfog decision issued %d command(s):\n", len(cmds))
	for _, c := range cmds {
		fmt.Printf("  %s %s %.1f mm\n", c.Target, c.Name, c.Value)
	}

	// The farmer reads their own data through the security stack.
	token, err := platform.Tokens.GrantPassword("matopiba-farmer", "farmer-secret")
	if err != nil {
		log.Fatal(err)
	}
	principal, err := platform.PEP.Authorize(token.Value, "read", "ngsi:urn:swamp:matopiba:probe:01")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPEP permitted %q to read probe data (OAuth2 + policy check)\n", principal.ID)
}
