// Package faultinject is the chaos harness behind the distributed
// fabric's robustness tests: a deterministic, seed-driven fault layer
// that wraps an http.RoundTripper (drops, latency spikes, 5xx bursts,
// truncated bodies, corrupted bytes) and a net.Listener (mid-job worker
// kills), so an end-to-end test can schedule an exact failure storm and
// still assert bit-identical golden results on the other side.
//
// Determinism is the design center: every per-request fault decision is
// a pure function of (Plan.Seed, request index) through the same
// coordinate-hash generator the simulator uses (internal/rng), so a
// failing chaos schedule replays exactly under `go test -run`, with no
// dependence on wall-clock time or goroutine interleaving for *which*
// faults fire (only their relative timing with respect to concurrent
// requests varies).
//
// It is test support: no binary may link it (CI checks `go list -deps`).
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"svard/internal/rng"
)

// Plan schedules faults for a Transport. Each probability field is the
// chance, per eligible request, that the corresponding fault fires;
// when several fire for one request the most disruptive wins, in the
// order Drop > Err5xx > Truncate > Corrupt (latency stacks with any of
// them). The zero Plan injects nothing.
type Plan struct {
	Seed uint64 // fault stream identity; same seed, same schedule

	// After exempts the first N requests, letting registration and
	// setup traffic through before the storm starts.
	After uint64

	Drop     float64       // P(connection error; request never reaches the server)
	Err5xx   float64       // P(synthesized 500 response instead of the real one)
	Truncate float64       // P(response body cut off mid-stream)
	Corrupt  float64       // P(one response body byte flipped)
	Latency  float64       // P(added latency before the request proceeds)
	Delay    time.Duration // the latency spike's size (default 50ms)
}

// fault selectors, hashed independently per request index so the fault
// mix of one schedule is stable when a single probability is tuned.
const (
	selDrop = iota + 1
	selErr5xx
	selTruncate
	selCorrupt
	selLatency
)

// decide reports whether the sel fault fires for request i under p.
func (p Plan) decide(sel, i uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	return rng.UniformAt(p.Seed, sel, i) < prob
}

// Transport injects the Plan's faults around Base (nil:
// http.DefaultTransport). It is safe for concurrent use; the request
// counter is shared, so concurrent requests draw distinct indices.
type Transport struct {
	Base http.RoundTripper
	Plan Plan

	n atomic.Uint64

	mu    sync.Mutex
	stats Stats
}

// Stats counts what actually fired, for assertions that a chaos test
// exercised the paths it claims to.
type Stats struct {
	Requests  uint64
	Dropped   uint64
	Served5xx uint64
	Truncated uint64
	Corrupted uint64
	Delayed   uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d requests: %d dropped, %d 5xx, %d truncated, %d corrupted, %d delayed",
		s.Requests, s.Dropped, s.Served5xx, s.Truncated, s.Corrupted, s.Delayed)
}

// Faults is the total number of injected faults.
func (s Stats) Faults() uint64 {
	return s.Dropped + s.Served5xx + s.Truncated + s.Corrupted + s.Delayed
}

// Stats snapshots the transport's fault counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *Transport) count(f func(*Stats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// ErrInjectedDrop is the error a dropped request surfaces, wrapped the
// way a real severed connection would be.
var ErrInjectedDrop = fmt.Errorf("faultinject: connection dropped")

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.n.Add(1) - 1
	t.count(func(s *Stats) { s.Requests++ })
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if i < t.Plan.After {
		return base.RoundTrip(req)
	}

	if t.Plan.decide(selLatency, i, t.Plan.Latency) {
		t.count(func(s *Stats) { s.Delayed++ })
		d := t.Plan.Delay
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}

	switch {
	case t.Plan.decide(selDrop, i, t.Plan.Drop):
		t.count(func(s *Stats) { s.Dropped++ })
		// Consume nothing; a dropped connection leaves the server side
		// untouched, exactly like a SYN lost on the wire.
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrInjectedDrop}

	case t.Plan.decide(selErr5xx, i, t.Plan.Err5xx):
		t.count(func(s *Stats) { s.Served5xx++ })
		body := fmt.Sprintf("faultinject: synthesized 500 for request %d", i)
		return &http.Response{
			Status:        "500 Internal Server Error",
			StatusCode:    http.StatusInternalServerError,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}

	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}

	switch {
	case t.Plan.decide(selTruncate, i, t.Plan.Truncate):
		t.count(func(s *Stats) { s.Truncated++ })
		resp.Body = truncateBody(resp.Body, i)
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")

	case t.Plan.decide(selCorrupt, i, t.Plan.Corrupt):
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(b) > 0 {
			t.count(func(s *Stats) { s.Corrupted++ })
			pos := int(rng.Hash64(t.Plan.Seed, selCorrupt, i, 1) % uint64(len(b)))
			b[pos] ^= 0x20 // case-flip: keeps JSON syntactically plausible, semantically wrong
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		resp.ContentLength = int64(len(b))
	}
	return resp, nil
}

// truncateBody reads the whole body and serves back a deterministic
// prefix, then errors like a torn connection would.
func truncateBody(body io.ReadCloser, i uint64) io.ReadCloser {
	b, err := io.ReadAll(body)
	body.Close()
	if err != nil || len(b) == 0 {
		return io.NopCloser(bytes.NewReader(nil))
	}
	cut := 1 + int(rng.Hash64(selTruncate, i)%uint64(len(b)))
	if cut >= len(b) {
		cut = len(b) - 1
	}
	return &tornBody{r: bytes.NewReader(b[:cut])}
}

// tornBody yields its prefix then fails with an unexpected-EOF-shaped
// error, the way a connection reset mid-body surfaces to a reader.
type tornBody struct{ r *bytes.Reader }

func (t *tornBody) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *tornBody) Close() error { return nil }

// Listener wraps a net.Listener with a kill switch: Sever() closes
// every connection accepted so far and makes further accepts fail —
// the network-visible shape of a worker process dying mid-job. Wrap a
// test server's listener before serving, then trip the switch from a
// request-count hook.
type Listener struct {
	net.Listener

	mu      sync.Mutex
	conns   []net.Conn
	severed bool
}

// Wrap returns a severable listener over l.
func Wrap(l net.Listener) *Listener { return &Listener{Listener: l} }

// Accept implements net.Listener, tracking accepted connections.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.severed {
		c.Close()
		return nil, net.ErrClosed
	}
	l.conns = append(l.conns, c)
	return c, nil
}

// Sever kills the worker: every accepted connection is closed (in-flight
// requests surface as resets to their clients) and the listener stops
// accepting. Idempotent.
func (l *Listener) Sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.severed {
		return
	}
	l.severed = true
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
	l.Listener.Close()
}

// Severed reports whether the kill switch has been tripped.
func (l *Listener) Severed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.severed
}
