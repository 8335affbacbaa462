package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	emdsearch "emdsearch"
)

// server wraps a ShardSet behind an HTTP+JSON API. Split from main so
// the handler is testable with httptest.
type server struct {
	set *emdsearch.ShardSet
	// timeout is the default per-query deadline when the request does
	// not carry its own; 0 means no deadline.
	timeout time.Duration
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/knn", s.handleKNN)
	mux.HandleFunc("/range", s.handleRange)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// knnRequest is the POST /knn body.
type knnRequest struct {
	Q emdsearch.Histogram `json:"q"`
	K int                 `json:"k"`
	// TimeoutMS, when > 0, overrides the server's default query
	// deadline. A query that exceeds it returns a certified partial
	// answer with Degraded set, not an error.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// rangeRequest is the POST /range body.
type rangeRequest struct {
	Q         emdsearch.Histogram `json:"q"`
	Eps       float64             `json:"eps"`
	TimeoutMS int                 `json:"timeout_ms,omitempty"`
}

// queryCtx derives the request's query context from its optional
// timeout override.
func (s *server) queryCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// readRequest decodes r's JSON body into v and reports whether it
// succeeded; on failure it has written the error response. A body
// longer than 64 bytes per histogram bin plus 4 KiB gets 413: no valid
// query is that long, and the bound keeps one request from making the
// server buffer an unbounded body.
func (s *server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := int64(64*s.set.Engine(0).Dim() + 4<<10)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("bad request body: %v", err), code)
	return false
}

func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req knnRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	ctx, cancel := s.queryCtx(r, req.TimeoutMS)
	defer cancel()
	ans, err := s.set.KNN(ctx, req.Q, req.K)
	if err != nil {
		writeQueryError(w, err, ans)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req rangeRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	ctx, cancel := s.queryCtx(r, req.TimeoutMS)
	defer cancel()
	ans, err := s.set.Range(ctx, req.Q, req.Eps)
	if err != nil {
		writeQueryError(w, err, ans)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

// healthzResponse is the GET /healthz body. Replicas is present only
// when the set runs with followers: per-shard ship status, so an
// operator can see replication lag before deciding a failover answer's
// freshness bound is acceptable.
type healthzResponse struct {
	Status   string                   `json:"status"`
	Shards   []emdsearch.ShardHealth  `json:"shards"`
	Replicas []emdsearch.ShardReplica `json:"replicas,omitempty"`
}

// handleHealthz reports per-shard availability: 200 while at least one
// shard can serve, 503 once every shard is quarantined — the signal a
// load balancer needs to stop routing here.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok"}
	open := 0
	for i := 0; i < s.set.Shards(); i++ {
		h := s.set.Health(i)
		resp.Shards = append(resp.Shards, h)
		if h.State == "open" {
			open++
		}
		if rep, ok := s.set.Replica(i); ok {
			resp.Replicas = append(resp.Replicas, rep)
		}
	}
	code := http.StatusOK
	if open == s.set.Shards() {
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	} else if open > 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, code, resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.set.Metrics())
}

// writeQueryError maps the engine's typed errors onto HTTP statuses:
// bad query 400, overload 429 with Retry-After, total shard outage (or
// anything else) 503 — with the degraded certificate attached when the
// set produced one, so even a failed scatter tells the client exactly
// what was not covered.
func writeQueryError(w http.ResponseWriter, err error, ans any) {
	var ov *emdsearch.OverloadError
	switch {
	case errors.Is(err, emdsearch.ErrBadQuery):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.As(err, &ov):
		w.Header().Set("Retry-After", strconv.FormatFloat(ov.RetryAfter.Seconds(), 'f', 3, 64))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  err.Error(),
			"answer": ans,
		})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
