package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"svard/internal/cache"
	"svard/internal/sim"
)

// CacheRemote is the HTTP implementation of cache.Remote: a shared
// object store addressed by the 64-hex SHA-256 cache keys, speaking the
// same sealed-envelope bytes the disk cache persists (GET/PUT
// /api/v1/objects/{key}). Every response body is verified through
// cache.OpenEnvelope before a result is surfaced, so a corrupt or
// truncated remote entry reads as an error — which the cache layer
// counts and absorbs by computing locally, never failing a sweep.
type CacheRemote struct {
	// BaseURL is the object store's root, e.g. the fabric coordinator.
	BaseURL string
	// HTTP is the underlying client (nil: http.DefaultClient).
	HTTP *http.Client
	// Retry bounds per-object retries; the zero value means the
	// package defaults (see Policy).
	Retry Policy

	seq atomic.Uint64
}

// NewCacheRemote returns a remote cache backend rooted at baseURL.
func NewCacheRemote(baseURL string, p Policy) *CacheRemote {
	return &CacheRemote{BaseURL: strings.TrimRight(baseURL, "/"), Retry: p}
}

func (r *CacheRemote) http() *http.Client {
	if r.HTTP != nil {
		return r.HTTP
	}
	return http.DefaultClient
}

func (r *CacheRemote) objectURL(key string) string {
	return r.BaseURL + "/api/v1/objects/" + url.PathEscape(key)
}

// Get implements cache.Remote. A missing object is (zero, false, nil);
// transport failures, non-2xx responses other than 404, and envelope
// verification failures are errors.
func (r *CacheRemote) Get(ctx context.Context, key string) (sim.Result, bool, error) {
	var (
		res   sim.Result
		found bool
	)
	err := retryDo(ctx, r.Retry, &r.seq, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, r.objectURL(key), nil)
		if err != nil {
			return err
		}
		resp, err := r.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// A miss is the common reply on a cold campaign: read its
			// error body so the connection serves the next key too.
			drain(resp.Body)
			found = false
			return nil
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return decodeError(resp)
		}
		// Read one byte past the bound the object PUT enforces, so an
		// over-long reply is refused whole instead of cut to a prefix.
		b, err := io.ReadAll(io.LimitReader(resp.Body, cache.MaxEnvelopeBytes+1))
		if err != nil {
			return fmt.Errorf("remote cache: reading object %s: %w", key[:8], err)
		}
		if len(b) > cache.MaxEnvelopeBytes {
			return errNoRetry(fmt.Errorf("remote cache: object %s is over %d bytes (refusing corrupt remote object)", key[:8], cache.MaxEnvelopeBytes))
		}
		got, err := cache.OpenEnvelope(key, b)
		if err != nil {
			// The object exists but fails verification; retrying the
			// fetch cannot fix a corrupt store entry.
			return fmt.Errorf("%w (refusing corrupt remote object)", errNoRetry(err))
		}
		res, found = got, true
		return nil
	})
	if err != nil {
		return sim.Result{}, false, err
	}
	return res, found, nil
}

// Put implements cache.Remote, publishing a sealed envelope.
func (r *CacheRemote) Put(ctx context.Context, key string, res sim.Result) error {
	b, err := cache.Seal(key, res)
	if err != nil {
		return err
	}
	return retryDo(ctx, r.Retry, &r.seq, func(actx context.Context) error {
		req, err := http.NewRequestWithContext(actx, http.MethodPut, r.objectURL(key), bytes.NewReader(b))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return decodeError(resp)
		}
		drain(resp.Body)
		return nil
	})
}

// errNoRetry wraps err so the retry loop stops without masking the
// cause.
func errNoRetry(err error) error {
	return &noRetryError{err: err}
}

type noRetryError struct{ err error }

func (e *noRetryError) Error() string { return e.err.Error() }
func (e *noRetryError) Unwrap() error { return e.err }
