package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"svard/internal/cache"
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
	// HTTP is the client for coordinator calls (nil: a 10s-timeout
	// client — register and heartbeat are small unary calls).
	HTTP *http.Client
	// Heartbeat overrides the coordinator-advertised interval (0: obey
	// the coordinator).
	Heartbeat time.Duration
	// Logf, when set, receives agent lifecycle lines.
	Logf func(format string, args ...any)
}

// Run registers and heartbeats until ctx is done. It only returns the
// context's cause: every network failure is retried, because the agent
// outliving coordinator restarts is the point.
func (a *Agent) Run(ctx context.Context) error {
	if a.Fabric == "" || a.Advertise == "" {
		return errors.New("fabric: agent needs both a coordinator URL and an advertise URL")
	}
	logf := a.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	base := strings.TrimRight(a.Fabric, "/")

	registerDelay := 200 * time.Millisecond
	for {
		reg, err := a.register(ctx, base)
		if err != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			logf("fabric-agent: register with %s failed: %v (retrying in %s)", base, err, registerDelay)
			if !sleepCtx(ctx, registerDelay) {
				return context.Cause(ctx)
			}
			if registerDelay *= 2; registerDelay > 5*time.Second {
				registerDelay = 5 * time.Second
			}
			continue
		}
		registerDelay = 200 * time.Millisecond

		interval := a.Heartbeat
		if interval <= 0 {
			interval = time.Duration(reg.HeartbeatSeconds * float64(time.Second))
		}
		if interval <= 0 {
			interval = 5 * time.Second
		}
		logf("fabric-agent: registered as %s, heartbeating every %s", reg.ID, interval)

		if rejoin := a.beatLoop(ctx, base, reg.ID, interval); !rejoin {
			return context.Cause(ctx)
		}
		logf("fabric-agent: coordinator no longer knows %s; re-registering", reg.ID)
	}
}

// beatLoop heartbeats until ctx ends (returns false) or the
// coordinator answers 404 (returns true: re-register).
func (a *Agent) beatLoop(ctx context.Context, base, id string, interval time.Duration) (rejoin bool) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		status, err := a.postJSON(ctx, base+"/api/v1/heartbeat", HeartbeatRequest{ID: id}, nil)
		switch {
		case ctx.Err() != nil:
			return false
		case status == http.StatusNotFound:
			return true
		case err != nil && a.Logf != nil:
			a.Logf("fabric-agent: heartbeat: %v", err)
		}
	}
}

func (a *Agent) register(ctx context.Context, base string) (RegisterResponse, error) {
	var reg RegisterResponse
	_, err := a.postJSON(ctx, base+"/api/v1/workers", RegisterRequest{Name: a.Name, URL: a.Advertise}, &reg)
	return reg, err
}

// postJSON is the agent's minimal unary call: it returns the status
// code alongside the error so callers can branch on 404 specifically.
func (a *Agent) postJSON(ctx context.Context, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	h := a.HTTP
	if h == nil {
		h = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := h.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("fabric: %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		// Nobody decodes a heartbeat's reply; read it anyway (capped) so
		// closing the body keeps the connection for the next beat.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx waits d or until ctx is done (false).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
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
