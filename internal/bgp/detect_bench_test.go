package bgp_test

import (
	"testing"
	"time"

	"arachnet/internal/bgp"
	"arachnet/internal/core"
	"arachnet/internal/netsim"
)

// BenchmarkDetectBursts times burst detection the way the routing
// capability runs it: hourly bins at threshold 4, over the update
// stream of the small test world (seed 7) with scenario 5 injected.
func BenchmarkDetectBursts(b *testing.B) {
	env, err := core.NewEnvironment(netsim.SmallConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	if err := env.InjectCableFailureScenario(core.ScenarioConfig{Seed: 5}); err != nil {
		b.Fatal(err)
	}
	msgs := env.Scenario().Stream
	b.ReportAllocs()
	for b.Loop() {
		bgp.DetectBursts(msgs, time.Hour, 4)
	}
}
