package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"svard/internal/cache"
	"svard/internal/client"
)

// Agent is the worker-side fabric loop a svard-served process runs
// alongside its API: register with the coordinator, then heartbeat at
// the advertised cadence so the coordinator keeps this worker's leases
// alive. A 404 on heartbeat (coordinator restarted, worker evicted)
// triggers re-registration; transient errors are ridden out — missing
// a few beats only risks a lease, never the worker.
type Agent struct {
	// Fabric is the coordinator's base URL (required).
	Fabric string
	// Advertise is this worker's own svard-served base URL as reachable
	// from the coordinator (required).
	Advertise string
	// Name labels this worker in coordinator logs (default: Advertise).
	Name string
	// HTTP is the client for coordinator calls (nil: http.DefaultClient).
	// Each attempt of a register or heartbeat times out after 10 s.
	HTTP *http.Client
	// Heartbeat overrides the coordinator-advertised interval (0: obey
	// the coordinator).
	Heartbeat time.Duration
	// Logf, when set, receives agent lifecycle lines.
	Logf func(format string, args ...any)
}

// agentRetry is how the agent retries a register or a heartbeat: up to
// ten attempts with the client's jittered backoff between 200 ms and
// 5 s, each attempt bounded like the small unary call it is. A call
// that exhausts them is logged and made again.
var agentRetry = client.Policy{
	MaxAttempts: 10, BaseDelay: 200 * time.Millisecond, MaxDelay: 5 * time.Second, AttemptTimeout: 10 * time.Second,
}

// Run registers and heartbeats until ctx is done, and then returns the
// context's cause: every failure to reach the coordinator is retried,
// because the agent outliving coordinator restarts is the point. The one
// other return is a registration the coordinator refuses (a 4xx other
// than 429): the same request cannot succeed later.
func (a *Agent) Run(ctx context.Context) error {
	if a.Fabric == "" || a.Advertise == "" {
		return errors.New("fabric: agent needs both a coordinator URL and an advertise URL")
	}
	logf := a.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := client.New(a.Fabric)
	c.HTTP = a.HTTP
	c.Retry = &agentRetry

	for {
		var reg RegisterResponse
		err := c.Call(ctx, http.MethodPost, "/api/v1/workers", RegisterRequest{Name: a.Name, URL: a.Advertise}, &reg)
		var ae *client.APIError
		switch {
		case ctx.Err() != nil:
			return context.Cause(ctx)
		case errors.As(err, &ae) && !ae.Temporary():
			logf("fabric-agent: %s refused the registration: %v", c.BaseURL, err)
			return err
		case err != nil:
			logf("fabric-agent: register with %s: %v (retrying)", c.BaseURL, err)
			continue
		}

		interval := a.Heartbeat
		if interval <= 0 {
			interval = time.Duration(reg.HeartbeatSeconds * float64(time.Second))
		}
		if interval <= 0 {
			interval = 5 * time.Second
		}
		logf("fabric-agent: registered as %s, heartbeating every %s", reg.ID, interval)

		if rejoin := beatLoop(ctx, c, reg.ID, interval, logf); !rejoin {
			return context.Cause(ctx)
		}
		logf("fabric-agent: coordinator no longer knows %s; re-registering", reg.ID)
	}
}

// beatLoop heartbeats through c until ctx ends (returns false) or the
// coordinator answers 404 (returns true: re-register).
func beatLoop(ctx context.Context, c *client.Client, id string, interval time.Duration, logf func(string, ...any)) (rejoin bool) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		err := c.Call(ctx, http.MethodPost, "/api/v1/heartbeat", HeartbeatRequest{ID: id}, nil)
		var ae *client.APIError
		switch {
		case ctx.Err() != nil:
			return false
		case errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound:
			return true
		case err != nil:
			logf("fabric-agent: heartbeat: %v", err)
		}
	}
}

// --- shared HTTP helpers ---------------------------------------------

// maxBody caps every request body read: an object PUT carries one
// envelope, and no registration or heartbeat comes near that bound.
const maxBody = cache.MaxEnvelopeBytes

// decodeJSON decodes r's capped JSON body into out, or answers
// writeBodyError and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, out any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(out)
	if err != nil {
		writeBodyError(w, err)
	}
	return err == nil
}

// writeBodyError answers a failed body read: 413 over the cap, else 400.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("bad request body: %w", err))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	if v == nil {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
