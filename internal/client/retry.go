package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"svard/internal/rng"
)

// Policy bounds how a client retries a failed round-trip: up to
// MaxAttempts tries, each under its own AttemptTimeout, with
// decorrelated-jitter exponential backoff between them (sleep drawn
// uniformly from [BaseDelay, 3×previous sleep], capped at MaxDelay).
// The same backoff paces Client.Wait's stream reconnects. It is the one
// statement of retry pacing for every peer: the fabric coordinator's
// worker clients and its workers' agents retry under a Policy too.
// The jitter stream derives from Seed and a per-client attempt counter
// through internal/rng, so a test's retry timing is reproducible.
// The zero Policy means the defaults below.
type Policy struct {
	MaxAttempts    int           // total tries including the first (default 4)
	BaseDelay      time.Duration // backoff floor (default 50ms)
	MaxDelay       time.Duration // backoff ceiling (default 2s)
	AttemptTimeout time.Duration // per-attempt deadline (default 30s; <0 disables)
	Seed           uint64        // jitter stream identity
}

// Policy defaults.
const (
	DefaultMaxAttempts    = 4
	DefaultBaseDelay      = 50 * time.Millisecond
	DefaultMaxDelay       = 2 * time.Second
	DefaultAttemptTimeout = 30 * time.Second
)

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = DefaultAttemptTimeout
	}
	return p
}

// backoff draws the next decorrelated-jitter sleep after prev, using
// draw i of the policy's jitter stream.
func (p Policy) backoff(prev time.Duration, i uint64) time.Duration {
	span := 3*prev - p.BaseDelay
	if span <= 0 {
		return p.BaseDelay
	}
	d := p.BaseDelay + time.Duration(rng.UniformAt(p.Seed, 0x6a17, i)*float64(span))
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// APIError is a non-2xx response from the service, preserving the
// status code so callers (and the retry loop) can tell a crashed
// backend (5xx, retryable) from a rejected request (4xx, not).
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Temporary reports whether retrying the same request can help.
func (e *APIError) Temporary() bool {
	return e.StatusCode >= 500 || e.StatusCode == http.StatusTooManyRequests
}

// retryable reports whether err is worth another attempt: transport
// errors and 5xx/429 are; application-level 4xx and an explicit no-retry
// wrap are not. Context errors are resolved by the caller against the
// parent context.
func retryable(err error) bool {
	var nr *noRetryError
	if errors.As(err, &nr) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Temporary()
	}
	return true
}

// retryDo runs op under p: per-attempt timeouts, backoff between
// retryable failures, stopping as soon as ctx (the parent) is done.
// seq is the caller's jitter-draw counter, shared across calls so
// concurrent retries decorrelate.
func retryDo(ctx context.Context, p Policy, seq *atomic.Uint64, op func(context.Context) error) error {
	p = p.withDefaults()
	var lastErr error
	sleep := p.BaseDelay
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			sleep = p.backoff(sleep, seq.Add(1))
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-time.After(sleep):
			}
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := op(actx)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The parent gave up; an attempt-timeout alone would retry.
			return context.Cause(ctx)
		}
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", p.MaxAttempts, lastErr)
}
