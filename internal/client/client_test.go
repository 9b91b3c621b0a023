package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svard/internal/cache"
	"svard/internal/faultinject"
	"svard/internal/server"
	"svard/internal/sim"
)

// fastPolicy keeps retry tests snappy.
func fastPolicy() Policy {
	return Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1}
}

// TestRetryRecoversFrom5xxBurst: a unary call rides out transient 500s
// within the attempt budget; without a policy the first 500 surfaces.
func TestRetryRecoversFrom5xxBurst(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	}))
	defer srv.Close()

	bare := New(srv.URL)
	if err := bare.Health(context.Background()); err == nil {
		t.Fatal("policy-free client swallowed a 500")
	}
	calls.Store(0)

	c := New(srv.URL)
	p := fastPolicy()
	c.Retry = &p
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client failed across a 2-deep 500 burst: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 500s + success)", got)
	}
}

// TestRetrySkips4xx: application errors are not retried — hammering a
// server with a request it already rejected is pure load.
func TestRetrySkips4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer srv.Close()

	c := New(srv.URL)
	p := fastPolicy()
	c.Retry = &p
	_, err := c.Job(context.Background(), "nope")
	if err == nil {
		t.Fatal("404 did not surface")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("error = %v, want APIError 404", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls for a 404, want 1", got)
	}
}

// TestWaitDelayCapsAndResets: Wait paces reconnects with Policy.backoff.
// Every pause lies within [BaseDelay, MaxDelay]; pauses grow while
// reconnects yield nothing until they reach the cap; and a reconnect
// that delivered an event restarts from the floor (backoff from 0).
func TestWaitDelayCapsAndResets(t *testing.T) {
	for _, p := range []Policy{{}, fastPolicy(), {BaseDelay: 200 * time.Millisecond, MaxDelay: 5 * time.Second, Seed: 9}} {
		p = p.withDefaults()
		for i := uint64(1); i < 100; i++ {
			if d := p.backoff(0, i); d != p.BaseDelay {
				t.Fatalf("%+v: pause after progress = %v, want the floor %v", p, d, p.BaseDelay)
			}
		}
		pause, capped := time.Duration(0), false
		for i := uint64(1); i <= 200; i++ {
			pause = p.backoff(pause, i)
			if pause < p.BaseDelay || pause > p.MaxDelay {
				t.Fatalf("%+v: pause %d = %v outside [%v, %v]", p, i, pause, p.BaseDelay, p.MaxDelay)
			}
			capped = capped || pause == p.MaxDelay
		}
		if !capped {
			t.Errorf("%+v: 200 idle reconnects never reached the cap %v", p, p.MaxDelay)
		}
	}
}

// eventServer fakes the two endpoints Wait touches: a chunked events
// stream that tears the connection after a few events, and the job
// endpoint that turns done only once the stream has served everything.
type eventServer struct {
	total   int // cell events before the terminal state event
	perConn int // events served per connection before tearing

	mu       sync.Mutex
	froms    []int // ?from offset of every events request
	maxServe int   // highest seq served so far
}

func (s *eventServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		from := 0
		fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)
		s.mu.Lock()
		s.froms = append(s.froms, from)
		s.mu.Unlock()
		enc := json.NewEncoder(w)
		for i, n := from, 0; i <= s.total && n < s.perConn; i, n = i+1, n+1 {
			ev := server.Event{Seq: i, Type: "cell", Done: i + 1, Total: s.total}
			if i == s.total {
				ev = server.Event{Seq: i, Type: "state", State: server.StateDone, Done: s.total, Total: s.total}
			}
			enc.Encode(ev)
			s.mu.Lock()
			if i > s.maxServe {
				s.maxServe = i
			}
			s.mu.Unlock()
		}
		// Connection ends here; a client mid-stream sees a clean EOF
		// with the job still running and must reconnect from its offset.
	})
	mux.HandleFunc("GET /api/v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		done := s.maxServe >= s.total
		s.mu.Unlock()
		info := server.JobInfo{ID: "j1", State: server.StateRunning, Total: s.total}
		if done {
			info.State = server.StateDone
			info.Done = s.total
		}
		json.NewEncoder(w).Encode(info)
	})
	return mux
}

// TestWaitResumesFromOffsetUnderDrops is the reconnect regression test:
// Wait must ride out torn streams AND injected transport drops, resume
// each reconnect from the last seen offset (never from zero), deliver
// every event exactly once in order, and land on the terminal state.
func TestWaitResumesFromOffsetUnderDrops(t *testing.T) {
	es := &eventServer{total: 12, perConn: 3}
	srv := httptest.NewServer(es.handler())
	defer srv.Close()

	tr := &faultinject.Transport{Plan: faultinject.Plan{Seed: 11, Drop: 0.25}}
	c := New(srv.URL)
	p := fastPolicy()
	p.MaxAttempts = 6
	c.Retry = &p
	c.HTTP = &http.Client{Transport: tr}

	var seqs []int
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Wait(ctx, "j1", func(ev server.Event) error {
		seqs = append(seqs, ev.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Wait under drops: %v (faults: %v)", err, tr.Stats())
	}
	if info.State != server.StateDone {
		t.Fatalf("final state = %s, want done", info.State)
	}
	if len(seqs) != es.total+1 {
		t.Fatalf("delivered %d events, want %d: %v", len(seqs), es.total+1, seqs)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("event %d has seq %d — duplicate or gap: %v", i, seq, seqs)
		}
	}
	if st := tr.Stats(); st.Dropped == 0 {
		t.Fatalf("fault plan injected no drops (%v); the test proved nothing", st)
	}

	es.mu.Lock()
	defer es.mu.Unlock()
	if len(es.froms) < 2 {
		t.Fatalf("stream never reconnected (froms=%v)", es.froms)
	}
	for i := 1; i < len(es.froms); i++ {
		if es.froms[i] < es.froms[i-1] {
			t.Fatalf("reconnect offsets regressed: %v", es.froms)
		}
	}
	if es.froms[len(es.froms)-1] == 0 {
		t.Fatalf("final reconnect restarted from zero: %v", es.froms)
	}
}

// objectStore is an in-memory /api/v1/objects/{key} backend.
type objectStore struct {
	mu      sync.Mutex
	objects map[string][]byte
	gets    atomic.Int64
	fail5xx atomic.Int64 // GETs to fail with 500 before serving
}

func (o *objectStore) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		o.gets.Add(1)
		if o.fail5xx.Load() > 0 {
			o.fail5xx.Add(-1)
			http.Error(w, `{"error":"store overloaded"}`, http.StatusInternalServerError)
			return
		}
		o.mu.Lock()
		b, ok := o.objects[r.PathValue("key")]
		o.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no such object"}`, http.StatusNotFound)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("PUT /api/v1/objects/{key}", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		o.mu.Lock()
		if o.objects == nil {
			o.objects = map[string][]byte{}
		}
		o.objects[r.PathValue("key")] = b
		o.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// TestCacheRemoteRoundTrip: Put publishes a sealed envelope a fresh
// CacheRemote can Get back verified, riding out a 5xx burst; a missing
// key is a clean miss; a corrupt stored object is an error and is NOT
// refetched (retrying cannot heal a corrupt store).
func TestCacheRemoteRoundTrip(t *testing.T) {
	store := &objectStore{}
	srv := httptest.NewServer(store.handler())
	defer srv.Close()

	cfg := sim.DefaultConfig()
	key := cache.Key(cfg)
	res := sim.Result{IPC: []float64{1.25}, Cycles: 77, Violations: 3, Finished: true}

	rc := NewCacheRemote(srv.URL, fastPolicy())
	ctx := context.Background()
	if err := rc.Put(ctx, key, res); err != nil {
		t.Fatalf("Put: %v", err)
	}

	if _, found, err := rc.Get(ctx, "deadbeef"+key[8:]); err != nil || found {
		t.Fatalf("absent key: found=%v err=%v, want clean miss", found, err)
	}

	store.fail5xx.Store(2)
	got, found, err := rc.Get(ctx, key)
	if err != nil || !found {
		t.Fatalf("Get across 5xx burst: found=%v err=%v", found, err)
	}
	if got.Cycles != res.Cycles || got.Violations != res.Violations || !got.Finished {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, res)
	}

	// Corrupt the stored envelope: one flipped bit inside the payload.
	store.mu.Lock()
	store.objects[key][len(store.objects[key])-20] ^= 1
	store.mu.Unlock()
	store.gets.Store(0)
	if _, found, err := rc.Get(ctx, key); err == nil {
		t.Fatalf("corrupt object served as found=%v", found)
	}
	if got := store.gets.Load(); got != 1 {
		t.Fatalf("corrupt object fetched %d times, want 1 (no retry)", got)
	}
}

// TestStoreWithCacheRemoteEndToEnd: the disk cache wired to a real
// HTTP object store shares results across stores with distinct dirs —
// the wire envelope and the disk envelope are the same sealed bytes.
func TestStoreWithCacheRemoteEndToEnd(t *testing.T) {
	osrv := httptest.NewServer((&objectStore{}).handler())
	defer osrv.Close()

	cfg := sim.DefaultConfig()
	cfg.NRH = 512
	want := sim.Result{IPC: []float64{0.5, 0.75}, Cycles: 123, Finished: true}
	var computes atomic.Int64
	runner := func(sim.Config) (sim.Result, error) {
		computes.Add(1)
		return want, nil
	}

	s1, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetRemote(NewCacheRemote(osrv.URL, fastPolicy()), 0)
	if _, _, err := s1.GetOrCompute(cfg, runner); err != nil {
		t.Fatal(err)
	}

	s2, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetRemote(NewCacheRemote(osrv.URL, fastPolicy()), 0)
	got, _, err := s2.GetOrCompute(cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("remote-served result differs: %+v", got)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times across two stores sharing a remote, want 1", n)
	}
	if st := s2.Stats(); st.RemoteHits != 1 {
		t.Fatalf("second store RemoteHits = %d, want 1 (%v)", st.RemoteHits, st)
	}
}

// TestCacheRemoteRefusesOversizedObject: a GET reply is held to the bound
// the object PUT enforces. A remote serving a 2 MiB envelope — well
// formed, correctly summed, over the bound — is a corrupt remote object:
// one remote error, no refetch, the cell computes locally, and nothing
// the remote sent reaches the local store.
func TestCacheRemoteRefusesOversizedObject(t *testing.T) {
	cfg := sim.DefaultConfig()
	key := cache.Key(cfg)
	big := sim.Result{IPC: make([]float64, 180_000), Finished: true}
	for i := range big.IPC {
		big.IPC[i] = 0.123456789
	}
	sealed, err := cache.Seal(key, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 2<<20 {
		t.Fatalf("test setup: envelope is %d bytes, want at least 2 MiB", len(sealed))
	}
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
			w.Write(sealed)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	dir := t.TempDir()
	s, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRemote(NewCacheRemote(srv.URL, fastPolicy()), 0)
	local := sim.Result{IPC: []float64{1.5}, Cycles: 9, Finished: true}
	got, _, err := s.GetOrCompute(cfg, func(sim.Config) (sim.Result, error) { return local, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IPC) != 1 || got.Cycles != local.Cycles {
		t.Fatalf("served %d IPC entries, cycles %d; want the local compute", len(got.IPC), got.Cycles)
	}
	if st := s.Stats(); st.RemoteErrors != 1 || st.RemoteHits != 0 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("stats = %v, want one remote error, one local compute, one write", st)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("oversized object fetched %d times, want 1 (no retry)", n)
	}
	reopened, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stored, ok := reopened.Get(key); !ok || len(stored.IPC) != 1 || stored.Cycles != local.Cycles {
		t.Errorf("stored entry has %d IPC entries (found %v), want the local result", len(stored.IPC), ok)
	}
}

// TestRemoteMissReusesConnection: a cold campaign asks the object store
// for every cell before computing it, so a miss is the store's most
// common reply. Each one used to cost a TCP connection — Get returned on
// 404 without reading the error body, and the transport closes a
// keep-alive connection whose reply was not read to the end. Twenty
// misses, twenty stores and a few calls whose reply nobody decodes must
// all ride the one connection the first request opened.
func TestRemoteMissReusesConnection(t *testing.T) {
	store := &objectStore{}
	mux := http.NewServeMux()
	mux.Handle("/api/v1/objects/", store.handler())
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "cancelled"})
	})
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	ctx := context.Background()
	rc := NewCacheRemote(srv.URL, fastPolicy())
	rc.HTTP = srv.Client()
	key := cache.Key(sim.DefaultConfig())
	for i := 0; i < 20; i++ {
		miss := fmt.Sprintf("%08x%s", i, key[8:])
		if _, found, err := rc.Get(ctx, miss); err != nil || found {
			t.Fatalf("Get(%s): found=%v err=%v, want a clean miss", miss[:8], found, err)
		}
		if err := rc.Put(ctx, miss, sim.Result{Cycles: uint64(i), Finished: true}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	c := New(srv.URL)
	c.HTTP = srv.Client()
	for i := 0; i < 5; i++ {
		if err := c.Call(ctx, http.MethodDelete, "/api/v1/jobs/j1", nil, nil); err != nil {
			t.Fatalf("undecoded call: %v", err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("20 misses + 20 stores + 5 undecoded replies opened %d connections, want 1", n)
	}
}
