// Package client is the typed Go client for the svard-served campaign
// service (internal/server): submit a campaign.Spec as an asynchronous
// job, follow its per-cell progress stream, cancel it, and fetch the
// folded figure cells or raw cached simulation results. Every call
// takes a context and maps non-2xx responses to errors carrying the
// server's message.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"svard/internal/campaign"
	"svard/internal/server"
	"svard/internal/sim"
)

// Client talks to one svard-served instance.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTP is the underlying client (nil: http.DefaultClient). Streaming
	// calls hold a connection open for the job's lifetime; configure
	// timeouts via the context, not the transport.
	HTTP *http.Client
	// Retry, when set, retries failed unary calls (not Events streams —
	// Wait owns stream reconnection) under the policy's attempt bound,
	// per-attempt timeouts, and jittered backoff. Nil means one attempt.
	// Wait paces its reconnects with the same policy's backoff (nil: the
	// zero Policy's defaults).
	Retry *Policy

	retrySeq atomic.Uint64 // jitter-draw counter shared across calls
}

// New returns a client for the service at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit enqueues a campaign and returns the queued job.
func (c *Client) Submit(ctx context.Context, spec campaign.Spec, name string, priority int) (server.JobInfo, error) {
	var info server.JobInfo
	err := c.Call(ctx, http.MethodPost, "/api/v1/jobs", server.SubmitRequest{
		Name: name, Priority: priority, Spec: spec,
	}, &info)
	return info, err
}

// Job fetches one job's state.
func (c *Client) Job(ctx context.Context, id string) (server.JobInfo, error) {
	var info server.JobInfo
	err := c.Call(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Jobs lists every job the service knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]server.JobInfo, error) {
	var infos []server.JobInfo
	err := c.Call(ctx, http.MethodGet, "/api/v1/jobs", nil, &infos)
	return infos, err
}

// Cancel stops a job (see the server's latency contract: within one
// cell's latency for a running job, immediately for a queued one).
func (c *Client) Cancel(ctx context.Context, id, reason string) (server.JobInfo, error) {
	p := "/api/v1/jobs/" + url.PathEscape(id) + "/cancel"
	if reason != "" {
		p += "?reason=" + url.QueryEscape(reason)
	}
	var info server.JobInfo
	err := c.Call(ctx, http.MethodPost, p, nil, &info)
	return info, err
}

// Result fetches a completed job's folded figures. A job that is not
// done yet returns an error carrying the server's state message.
func (c *Client) Result(ctx context.Context, id string) (server.ResultResponse, error) {
	var res server.ResultResponse
	err := c.Call(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id)+"/result", nil, &res)
	return res, err
}

// Cell fetches one raw cached simulation result by its cache key
// (cache.Key(cfg) derives it).
func (c *Client) Cell(ctx context.Context, key string) (sim.Result, error) {
	var res server.CellResponse
	err := c.Call(ctx, http.MethodGet, "/api/v1/cells/"+url.PathEscape(key), nil, &res)
	return res.Result, err
}

// Compute runs a batch of raw cells synchronously on the worker and
// reports per-cell outcomes — the fabric coordinator's dispatch call.
// Callers stream large campaigns as many small batches; the worker
// computes each batch through its shared slots and cache.
func (c *Client) Compute(ctx context.Context, cfgs []sim.Config) (server.ComputeResponse, error) {
	var resp server.ComputeResponse
	err := c.Call(ctx, http.MethodPost, "/api/v1/compute", server.ComputeRequest{Configs: cfgs}, &resp)
	return resp, err
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.Call(ctx, http.MethodGet, "/healthz", nil, &struct {
		Status string `json:"status"`
	}{})
}

// Events follows a job's NDJSON progress stream from seq `from`,
// invoking fn per event, until the job reaches a terminal state, fn
// returns an error, or ctx is done. It returns nil on a fully drained
// terminal stream.
func (c *Client) Events(ctx context.Context, id string, from int, fn func(server.Event) error) error {
	p := "/api/v1/jobs/" + url.PathEscape(id) + "/events"
	if from > 0 {
		p += "?from=" + strconv.Itoa(from)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+p, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("client: bad event line %q: %w", line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Wait streams events (calling fn on each if non-nil) until the job is
// terminal, reconnecting from the last seen event if the stream drops —
// including transport errors and torn NDJSON lines, not just a clean
// end — and returns the final job info. An error from fn, a cancelled
// ctx, and API errors on the job itself (404 after eviction) end the
// wait; a severed connection does not, because the job keeps running
// server-side regardless of our socket.
func (c *Client) Wait(ctx context.Context, id string, fn func(server.Event) error) (server.JobInfo, error) {
	var p Policy
	if c.Retry != nil {
		p = *c.Retry
	}
	p = p.withDefaults()
	from := 0
	var pause time.Duration // the last reconnect pause; 0 after progress
	for {
		var cbErr error
		progressed := false
		streamErr := c.Events(ctx, id, from, func(ev server.Event) error {
			from = ev.Seq + 1
			progressed = true
			if fn != nil {
				if err := fn(ev); err != nil {
					cbErr = err
					return err
				}
			}
			return nil
		})
		if cbErr != nil {
			return server.JobInfo{}, cbErr
		}
		if ctx.Err() != nil {
			return server.JobInfo{}, context.Cause(ctx)
		}

		// Whether the stream ended cleanly (job terminal, fully drained)
		// or dropped mid-flight, the job's state decides what's next.
		info, err := c.Job(ctx, id)
		if err != nil {
			if streamErr != nil {
				return server.JobInfo{}, fmt.Errorf("client: stream dropped (%v) and job poll failed: %w", streamErr, err)
			}
			return server.JobInfo{}, err
		}
		if info.State.Terminal() {
			return info, nil
		}
		// Still running: reconnect from the last seen event under the
		// policy's backoff, which grows while reconnects yield nothing
		// so a flapping stream does not hammer a recovering daemon. Any
		// received event resets the pace to the floor.
		if progressed {
			pause = 0
		}
		pause = p.backoff(pause, c.retrySeq.Add(1))
		select {
		case <-ctx.Done():
			return info, context.Cause(ctx)
		case <-time.After(pause):
		}
	}
}

// Call performs one JSON request/response round-trip against path
// (relative to BaseURL): body, when non-nil, is sent as JSON, and a 2xx
// reply is decoded into out (nil: read and discarded). It is retried
// under c.Retry when set; a non-2xx reply is an *APIError. Every unary
// method above is a Call.
func (c *Client) Call(ctx context.Context, method, path string, body, out any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	attempt := func(actx context.Context) error {
		return c.once(actx, method, path, b, body != nil, out)
	}
	if c.Retry == nil {
		return attempt(ctx)
	}
	return retryDo(ctx, *c.Retry, &c.retrySeq, attempt)
}

// once performs a single request/response exchange.
func (c *Client) once(ctx context.Context, method, path string, body []byte, hasBody bool, out any) error {
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		drain(resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drain reads what is left of a reply nobody decodes (capped: these are
// error bodies and empty acknowledgements). The transport returns a
// keep-alive connection to its pool only once the body has been read to
// the end; closing an unread one closes the connection, and the next
// request pays for a new one.
func drain(body io.Reader) {
	io.Copy(io.Discard, io.LimitReader(body, 4096))
}

// decodeError surfaces the server's JSON error message (falling back
// to the raw body) as an *APIError carrying the status code.
func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var eb struct {
		Error string `json:"error"`
	}
	msg := string(bytes.TrimSpace(b))
	if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg}
}
