package router

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// Reloader is the optional reload surface of a Worker: RemoteWorker drives
// the daemon's POST /reload, which swaps in the candidate at path or refuses
// it with the old generation still serving.
type Reloader interface {
	Reload(ctx context.Context, path string) error
}

// ReloadShardsRequest is the frontend's POST /reload body: one candidate
// container path per shard (the shard slices are distinct containers).
type ReloadShardsRequest struct {
	Paths []string `json:"paths"`
	// Force permits swapping a shard's only healthy replica — without it the
	// orchestrator refuses, because a reload gone wrong there would leave
	// the shard unservable and every request guaranteed-incomplete.
	Force bool `json:"force,omitempty"`
	// TimeoutMS bounds the whole rolling reload (default 2 minutes).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ReplicaReloadWire is one replica's outcome in the rolling reload.
type ReplicaReloadWire struct {
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
}

// ReloadShardsResponse reports the rolling reload, one entry per replica in
// rolling order. OK means every replica swapped.
type ReloadShardsResponse struct {
	OK       bool                `json:"ok"`
	Replicas []ReplicaReloadWire `json:"replicas"`
}

// RollingReload walks the fleet shard by shard, replica by replica: a
// replica that is its shard's last healthy one is never reloaded unless
// force, and every other is sent one reload of its candidate — which the
// daemon opens and checks in full before it swaps, refusing a bad one with
// its old generation still serving — so a rolling reload can degrade one
// replica at a time but can never take a whole shard out of rotation. The
// walk is sequential by construction: at most one replica is mid-swap at any
// moment. Replicas without a Reloader surface (custom workers) fail their
// entry; the rest of the fleet still rolls.
func (rt *Router) RollingReload(ctx context.Context, paths []string, force bool) *ReloadShardsResponse {
	resp := &ReloadShardsResponse{OK: true}
	for s := 0; s < rt.NumShards(); s++ {
		path := paths[s]
		for _, w := range rt.Workers(s) {
			entry := ReplicaReloadWire{Shard: s, Worker: w.Name()}
			fail := func(format string, args ...any) {
				entry.Error = fmt.Sprintf(format, args...)
				resp.OK = false
				resp.Replicas = append(resp.Replicas, entry)
			}
			rl, ok := w.(Reloader)
			if !ok {
				fail("worker is not reloadable")
				continue
			}
			if !force && rt.HealthyReplicas(s) <= 1 {
				fail("refusing to reload shard %d's last healthy replica (force to override)", s)
				continue
			}
			if err := rl.Reload(ctx, path); err != nil {
				fail("swap: %v", err)
				continue
			}
			entry.OK = true
			resp.Replicas = append(resp.Replicas, entry)
			if ctx.Err() != nil {
				resp.OK = false
				return resp
			}
		}
	}
	return resp
}

// handleReload is the frontend's rolling-reload endpoint.
func (f *Frontend) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadShardsRequest
	if !f.DecodePost(w, r, &req) {
		return
	}
	if len(req.Paths) != f.rt.NumShards() {
		server.WriteError(w, http.StatusBadRequest, "%d paths for %d shards", len(req.Paths), f.rt.NumShards())
		return
	}
	timeout := 2 * time.Minute
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	resp := f.rt.RollingReload(ctx, req.Paths, req.Force)
	status := http.StatusOK
	if !resp.OK {
		// Partial or refused roll: the fleet still serves (old containers
		// where the swap did not happen), but the caller must know.
		status = http.StatusConflict
	}
	f.Logf("rolling reload: ok=%v over %d replicas", resp.OK, len(resp.Replicas))
	server.WriteJSON(w, status, resp)
}
