package emdsearch

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"sync/atomic"
	"testing"
)

// expvarRun numbers the invocations of TestPublishExpvarRoundTrip: the
// expvar registry outlives a run, so each run (-count=N) publishes
// under names of its own.
var expvarRun atomic.Int64

// TestPublishExpvarRoundTrip publishes engine, gate and shard-set
// metrics, reads them back through the expvar registry, and checks
// the JSON decodes into the metrics structs with live values — the
// exact path a /debug/vars scraper takes.
func TestPublishExpvarRoundTrip(t *testing.T) {
	set, _, queries := buildShardPair(t, 2, 20, ShardSetOptions{})
	eng, gate := set.Engine(0), set.gateAt(0)
	run := expvarRun.Add(1)
	engName := fmt.Sprintf("test_engine_metrics_%d", run)
	gateName := fmt.Sprintf("test_gate_metrics_%d", run)
	setName := fmt.Sprintf("test_set_metrics_%d", run)

	if err := eng.PublishExpvar(engName); err != nil {
		t.Fatal(err)
	}
	if err := gate.PublishExpvar(gateName); err != nil {
		t.Fatal(err)
	}
	if err := set.PublishExpvar(setName); err != nil {
		t.Fatal(err)
	}

	// Serve one query so the counters are nonzero.
	if _, err := set.KNN(context.Background(), queries[0], 3); err != nil {
		t.Fatal(err)
	}

	var em Metrics
	if err := json.Unmarshal([]byte(expvar.Get(engName).String()), &em); err != nil {
		t.Fatalf("engine metrics JSON: %v", err)
	}
	if em.KNNQueries < 1 {
		t.Fatalf("published engine metrics stale: %+v", em)
	}

	var gm GateMetrics
	if err := json.Unmarshal([]byte(expvar.Get(gateName).String()), &gm); err != nil {
		t.Fatalf("gate metrics JSON: %v", err)
	}
	if gm.Admitted < 1 {
		t.Fatalf("published gate metrics stale: %+v", gm)
	}

	var sm ShardSetMetrics
	if err := json.Unmarshal([]byte(expvar.Get(setName).String()), &sm); err != nil {
		t.Fatalf("shard-set metrics JSON: %v", err)
	}
	if sm.Queries != 1 || sm.Shards != 2 || len(sm.PerShard) != 2 {
		t.Fatalf("published shard-set metrics stale: %+v", sm)
	}
	if sm.PerShard[0].Health.State != "closed" {
		t.Fatalf("per-shard health missing: %+v", sm.PerShard[0])
	}

	// The registry is global and append-only: duplicates and empty
	// names are errors, not panics.
	if err := eng.PublishExpvar(engName); err == nil {
		t.Fatal("duplicate publish succeeded")
	}
	if err := eng.PublishExpvar(""); err == nil {
		t.Fatal("empty-name publish succeeded")
	}
}
