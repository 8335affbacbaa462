package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"emdsearch/internal/data"

	emdsearch "emdsearch"
)

// testServer builds a small sharded corpus behind the HTTP handler,
// optionally with a fault-injection hook, and returns it with a set of
// held-out query vectors.
func testServer(t *testing.T, hook func(ctx context.Context, shard, try int, op string) error) (*httptest.Server, *emdsearch.ShardSet, []emdsearch.Histogram) {
	t.Helper()
	ds, err := data.MusicSpectra(45, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := emdsearch.NewShardSet(ds.Cost,
		emdsearch.Options{ReducedDims: 4, Seed: 1},
		emdsearch.ShardSetOptions{Shards: 3, ShardHook: hook, QuarantineAfter: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		if _, err := set.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Build(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{set: set, timeout: time.Second}).handler())
	t.Cleanup(ts.Close)
	return ts, set, queries
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestServeKNN(t *testing.T) {
	ts, set, queries := testServer(t, nil)

	resp := postJSON(t, ts.URL+"/knn", knnRequest{Q: queries[0], K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ans emdsearch.ShardAnswer
	decodeBody(t, resp, &ans)
	if ans.Degraded || len(ans.Results) != 4 {
		t.Fatalf("answer = %+v", ans)
	}
	want, err := set.KNN(context.Background(), queries[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ans.Results {
		if r.Index != want.Results[i].Index || r.Dist != want.Results[i].Dist {
			t.Fatalf("pos %d: HTTP %+v, direct %+v", i, r, want.Results[i])
		}
	}
	if ans.Coverage.ShardsOK != 3 || ans.Coverage.ItemsUncovered != 0 {
		t.Fatalf("coverage = %+v", ans.Coverage)
	}

	// Malformed queries map to 400.
	resp = postJSON(t, ts.URL+"/knn", knnRequest{Q: queries[0][:3], K: 4})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/knn", knnRequest{Q: queries[0], K: 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 status %d, want 400", resp.StatusCode)
	}
	// GET is not a query.
	getResp, err := http.Get(ts.URL + "/knn")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /knn status %d, want 405", getResp.StatusCode)
	}
}

func TestServeRange(t *testing.T) {
	ts, set, queries := testServer(t, nil)
	probe, err := set.KNN(context.Background(), queries[1], 6)
	if err != nil {
		t.Fatal(err)
	}
	eps := probe.Results[len(probe.Results)-1].Dist
	resp := postJSON(t, ts.URL+"/range", rangeRequest{Q: queries[1], Eps: eps})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ans emdsearch.ShardRangeAnswer
	decodeBody(t, resp, &ans)
	if ans.Degraded || len(ans.Results) == 0 {
		t.Fatalf("answer = %+v", ans)
	}
	for _, r := range ans.Results {
		if r.Dist > eps {
			t.Fatalf("result %+v beyond eps %v", r, eps)
		}
	}
}

// TestServeWireShape pins the JSON key sets of healthy and degraded
// /knn and /range bodies — top level, Coverage and Stats — so a change
// to the answer types cannot silently change what clients parse.
// Values (timings above all) vary; keys do not.
func TestServeWireShape(t *testing.T) {
	object := func(t *testing.T, raw json.RawMessage) map[string]json.RawMessage {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	keys := func(m map[string]json.RawMessage) string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	const (
		knnTop   = "Anytime,Coverage,Degraded,Outcomes,Results,ShardStats,Stats"
		rangeTop = "Coverage,Degraded,Outcomes,Results,ShardStats,Stats"
		healthy  = "items_total,items_uncovered,shards,shards_degraded,shards_failed,shards_ok"
		failed   = "failed_shards," + healthy
		stats    = "Cancelled,FilterTime,IndexNodesVisited,IndexPruned,IndexUsed,Pulled,RefineCols,RefineRows," +
			"RefineTime,Refinements,RefinementsSkipped,RefinesAborted,SnapshotLen,StageEvaluations,Stages,TotalTime," +
			"WarmStartHits,Workers"
	)
	outage := func(ctx context.Context, shard, try int, op string) error {
		if shard == 1 {
			return errors.New("injected shard outage")
		}
		return nil
	}
	for _, tc := range []struct {
		name     string
		hook     func(ctx context.Context, shard, try int, op string) error
		coverage string
		degraded bool
	}{
		{"healthy", nil, healthy, false},
		{"degraded", outage, failed, true},
	} {
		ts, set, queries := testServer(t, tc.hook)
		probe, err := set.KNN(context.Background(), queries[1], 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct {
			path string
			body any
			top  string
		}{
			{"/knn", knnRequest{Q: queries[0], K: 4}, knnTop},
			{"/range", rangeRequest{Q: queries[1], Eps: probe.Results[len(probe.Results)-1].Dist}, rangeTop},
		} {
			tag := tc.name + call.path
			resp := postJSON(t, ts.URL+call.path, call.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", tag, resp.StatusCode)
			}
			var body map[string]json.RawMessage
			decodeBody(t, resp, &body)
			var degraded bool
			if err := json.Unmarshal(body["Degraded"], &degraded); err != nil || degraded != tc.degraded {
				t.Fatalf("%s: Degraded = %s, want %v", tag, body["Degraded"], tc.degraded)
			}
			for _, part := range []struct {
				name, got, want string
			}{
				{"top level", keys(body), call.top},
				{"Coverage", keys(object(t, body["Coverage"])), tc.coverage},
				{"Stats", keys(object(t, body["Stats"])), stats},
			} {
				if part.got != part.want {
					t.Errorf("%s %s keys:\n got %s\nwant %s", tag, part.name, part.got, part.want)
				}
			}
		}
	}
}

func TestServeDegradedAndHealth(t *testing.T) {
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == 1 {
			return errors.New("injected shard outage")
		}
		return nil
	}
	ts, _, queries := testServer(t, hook)

	resp := postJSON(t, ts.URL+"/knn", knnRequest{Q: queries[0], K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial failure status %d, want 200 with Degraded body", resp.StatusCode)
	}
	var ans emdsearch.ShardAnswer
	decodeBody(t, resp, &ans)
	if !ans.Degraded || ans.Coverage.ShardsFailed != 1 || ans.Coverage.ItemsUncovered == 0 {
		t.Fatalf("degraded answer = %+v", ans.Coverage)
	}
	if len(ans.Anytime) == 0 {
		t.Fatal("degraded answer lost its interval view over JSON")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthzResponse
	decodeBody(t, hresp, &health)
	if hresp.StatusCode != http.StatusOK || health.Status != "ok" || len(health.Shards) != 3 {
		t.Fatalf("healthz = %d %+v", hresp.StatusCode, health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m emdsearch.ShardSetMetrics
	decodeBody(t, mresp, &m)
	if m.Queries < 1 || m.ShardFailures < 1 || len(m.PerShard) != 3 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestServeAllShardsDown(t *testing.T) {
	hook := func(ctx context.Context, shard, try int, op string) error {
		return errors.New("injected total outage")
	}
	ts, _, queries := testServer(t, hook)
	resp := postJSON(t, ts.URL+"/knn", knnRequest{Q: queries[0], K: 4})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("total outage status %d, want 503", resp.StatusCode)
	}
	var body struct {
		Error  string                 `json:"error"`
		Answer *emdsearch.ShardAnswer `json:"answer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || body.Answer == nil || body.Answer.Coverage.ShardsFailed != 3 {
		t.Fatalf("503 body = %+v", body)
	}
}

// TestServeReplicaFailover: with followers enabled and one primary
// dead, the HTTP answer is complete — full coverage, a zero-lag
// freshness entry — and /healthz surfaces per-shard replica status.
func TestServeReplicaFailover(t *testing.T) {
	hook := func(ctx context.Context, shard, try int, op string) error {
		if shard == 1 && op == "knn" {
			return errors.New("injected primary crash")
		}
		return nil
	}
	ds, err := data.MusicSpectra(45, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := emdsearch.NewShardSet(ds.Cost,
		emdsearch.Options{ReducedDims: 4, Seed: 1},
		emdsearch.ShardSetOptions{Shards: 3, ShardHook: hook, QuarantineAfter: 100, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i, h := range vecs {
		if _, err := set.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Build(); err != nil {
		t.Fatal(err)
	}
	if err := set.WaitReplicasCaughtUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{set: set, timeout: time.Second}).handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/knn", knnRequest{Q: queries[0], K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ans emdsearch.ShardAnswer
	decodeBody(t, resp, &ans)
	if ans.Degraded || ans.Coverage.ItemsUncovered != 0 || ans.Coverage.ShardsOK != 3 {
		t.Fatalf("failed-over answer = %+v", ans.Coverage)
	}
	fr := ans.Coverage.Freshness
	if len(fr) != 1 || fr[0].Shard != 1 || fr[0].Lag != 0 {
		t.Fatalf("freshness over JSON = %+v", fr)
	}
	if !ans.Outcomes[1].FailedOver {
		t.Fatalf("outcome = %+v, want failed_over", ans.Outcomes[1])
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthzResponse
	decodeBody(t, hresp, &health)
	if len(health.Replicas) != 3 {
		t.Fatalf("healthz replicas = %+v, want 3 entries", health.Replicas)
	}
	for i, rep := range health.Replicas {
		if rep.Shard != i || !rep.Bootstrapped || rep.Lag != 0 {
			t.Fatalf("healthz replica %d = %+v", i, rep)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m emdsearch.ShardSetMetrics
	decodeBody(t, mresp, &m)
	if m.FailoverServes < 1 || len(m.Replicas) != 3 {
		t.Fatalf("metrics = failovers %d, %d replica entries", m.FailoverServes, len(m.Replicas))
	}
}

// TestServeDurabilityRoundTrip: a set built with -wal-dir survives a
// restart — the second buildSet recovers the corpus from disk instead
// of regenerating, including mutations made after the initial load.
func TestServeDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := serveConfig{shards: 3, n: 40, d: 16, dprime: 4, seed: 9, walDir: dir}

	set, recovered, err := buildSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("fresh directory reported a recovery")
	}
	// A post-build mutation lives only in the WAL until a checkpoint.
	ds, err := data.MusicSpectra(cfg.n, cfg.d, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	gid, err := set.Add("late", ds.Items[0].Vector)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Items[1].Vector
	want, err := set.KNN(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Crash without a checkpoint: recovery must replay the WAL tail.
	if err := set.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rec, recovered, err := buildSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("restart did not recover from the WAL directory")
	}
	if rec.Len() != gid+1 {
		t.Fatalf("recovered %d items, want %d", rec.Len(), gid+1)
	}
	got, err := rec.KNN(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("pos %d: recovered %+v, want %+v", i, got.Results[i], want.Results[i])
		}
	}
	// buildSet's recovery path checkpointed: the logs restart empty, so
	// a further mutation is the only WAL record a third start replays.
	if _, err := rec.Add("later", ds.Items[2].Vector); err != nil {
		t.Fatal(err)
	}
	if err := rec.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	third, recovered, err := buildSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !recovered || third.Len() != gid+2 {
		t.Fatalf("third start: recovered=%v len=%d, want %d", recovered, third.Len(), gid+2)
	}
	if err := third.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCheckpointLoop: the periodic loop checkpoints on its
// ticker, and closing stop flushes a final checkpoint and detaches
// the WALs — after which recovery needs no log replay at all.
func TestServeCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := serveConfig{shards: 2, n: 24, d: 16, dprime: 4, seed: 9, walDir: dir}
	set, _, err := buildSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := func() int64 {
		var n int64
		for _, ps := range set.Metrics().PerShard {
			n += ps.Engine.Checkpoints
		}
		return n
	}
	before := checkpoints()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		checkpointLoop(set, dir, 5*time.Millisecond, stop)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for checkpoints() <= before {
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoint never ran")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	// The final flush detached the logs: mutations now fail loudly
	// rather than silently losing durability...
	rec, stats, err := emdsearch.OpenShardSet(dir, set.Engine(0).Cost(), emdsearch.Options{ReducedDims: 4, Seed: 9}, emdsearch.ShardSetOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// ...and the snapshots carry everything: zero records replayed.
	for i, st := range stats {
		if st.WALRecords != 0 || !st.SnapshotLoaded {
			t.Fatalf("shard %d recovery after flush: %+v, want snapshot-only", i, st)
		}
	}
	if rec.Len() != set.Len() {
		t.Fatalf("recovered %d items, want %d", rec.Len(), set.Len())
	}
}
