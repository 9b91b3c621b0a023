// Package cache is the persistent, content-addressed simulation result
// store behind the campaign engine (internal/campaign): the evaluation
// sweeps are hundreds of independent cycle-level simulations, and a
// re-run with one changed knob — or a run restarted after a crash —
// should recompute only the cells it has never seen.
//
// Each sim.Config canonically hashes to a key (see Key); the key maps to
// a JSON-encoded sim.Result on disk under the store directory, fronted
// by an in-memory LRU. Concurrent requests for the same key coalesce
// onto a single computation (singleflight; a computation that died with
// its caller's cancellation is inherited by no one — waiters retry with
// their own), and corrupt or truncated disk entries are counted and
// silently recomputed, never surfaced as errors. All methods are safe
// for concurrent use.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"svard/internal/sim"
)

// DefaultLRUEntries bounds the in-memory layer when Open is given no
// explicit size. A sim.Result is a few hundred bytes, so the default
// holds a full paper-scale Fig. 12 sweep (5*7*4*120 = 16.8K cells)
// comfortably.
const DefaultLRUEntries = 32768

// Counters is a snapshot of the store's lookup counters: what served
// each lookup, and what the store wrote. Reading them touches nothing
// but atomics, so every campaign reports them (see Store.Counters).
type Counters struct {
	MemHits  uint64 // served from the in-memory LRU
	DiskHits uint64 // served from a valid on-disk entry
	Misses   uint64 // computed (no valid entry anywhere)
	Deduped  uint64 // coalesced onto a concurrent identical computation
	Corrupt  uint64 // on-disk entries that failed to load and were recomputed
	Writes   uint64 // entries persisted to disk

	// Remote-layer counters (zero unless a Remote backend is attached).
	// RemoteErrors counts every degraded interaction — a failed or
	// integrity-rejected Get and a failed Put alike — none of which ever
	// fail a lookup: the store falls back to local compute.
	RemoteHits   uint64 // served from the remote backend
	RemoteMisses uint64 // remote consulted, entry absent
	RemoteErrors uint64 // remote errors or corrupt responses, degraded to compute
}

// Hits is the total number of lookups served without recomputing.
func (c Counters) Hits() uint64 { return c.MemHits + c.DiskHits + c.Deduped + c.RemoteHits }

func (c Counters) String() string {
	str := fmt.Sprintf("%d hits (%d mem, %d disk, %d deduped), %d misses, %d corrupt, %d written",
		c.Hits(), c.MemHits, c.DiskHits, c.Deduped, c.Misses, c.Corrupt, c.Writes)
	if c.RemoteHits+c.RemoteMisses+c.RemoteErrors > 0 {
		str += fmt.Sprintf("; remote: %d hits, %d misses, %d errors", c.RemoteHits, c.RemoteMisses, c.RemoteErrors)
	}
	return str
}

// Stats is the counters plus the disk-layer gauges: how many entries
// the store's directory holds and how many bytes they occupy. Each
// Stats call counts the gauges with one walk of the directory; a caller
// that only wants the counters calls Counters and walks nothing.
type Stats struct {
	Counters
	Entries   uint64 // entries currently on disk (gauge, not a counter)
	DiskBytes uint64 // bytes those entries occupy (gauge)
}

func (s Stats) String() string {
	return fmt.Sprintf("%s; %d entries, %s on disk", s.Counters, s.Entries, humanBytes(s.DiskBytes))
}

// humanBytes renders a byte gauge for Stats.String.
func humanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Remote is a pluggable second-level result backend shared across
// processes — an HTTP object store speaking the 64-hex SHA-256 cache
// keys as the wire identity (internal/client.CacheRemote is the stock
// implementation; the svard-fabric coordinator serves the other end).
//
// The store treats the remote as strictly best-effort: a Get error, a
// response failing integrity checks, or a Put failure degrade to local
// compute and a count in Counters, never to a failed lookup. Implementations
// own their transport-level retries and timeouts; the store calls them
// synchronously on the lookup path.
type Remote interface {
	// Get returns the remote entry for key, reporting found=false for a
	// clean miss. An error covers everything else — transport failures,
	// 5xx responses, and integrity-rejected payloads alike.
	Get(ctx context.Context, key string) (res sim.Result, found bool, err error)
	// Put publishes a computed result under key, best-effort.
	Put(ctx context.Context, key string, res sim.Result) error
}

// Store is a content-addressed sim.Result store. The zero value is not
// usable; construct with Open.
type Store struct {
	dir    string // "" disables the disk layer
	lruMax int

	remote        Remote
	remoteTimeout time.Duration

	memHits  atomic.Uint64
	diskHits atomic.Uint64
	misses   atomic.Uint64
	deduped  atomic.Uint64
	corrupt  atomic.Uint64
	writes   atomic.Uint64

	remoteHits   atomic.Uint64
	remoteMisses atomic.Uint64
	remoteErrors atomic.Uint64

	mu     sync.Mutex
	lru    *list.List // most-recent first; values are *entry
	idx    map[string]*list.Element
	flight map[string]*call
}

type entry struct {
	key string
	res sim.Result
}

type call struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Open returns a store persisting under dir (created if missing), with
// an in-memory LRU of at most lruEntries results (<= 0 selects
// DefaultLRUEntries). An empty dir yields a memory-only store — every
// result still deduplicates and caches within the process, but nothing
// survives it.
//
// Open does not walk dir: only Stats does (see walk), so a process that
// only looks cells up never pays for it.
func Open(dir string, lruEntries int) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	if lruEntries <= 0 {
		lruEntries = DefaultLRUEntries
	}
	return &Store{
		dir:    dir,
		lruMax: lruEntries,
		lru:    list.New(),
		idx:    make(map[string]*list.Element),
		flight: make(map[string]*call),
	}, nil
}

// staleTempAge bounds walk's temp-file sweep: a *.tmp younger than
// this may belong to another live process persisting into the same
// cache directory (svard-served and svard-sweep sharing one store is
// the intended setup), and deleting it would silently lose that
// process's in-flight write when its rename fails. Crash residue, by
// contrast, only gets older.
const staleTempAge = time.Hour

// walk visits the shard directories once: it removes stale *.tmp files
// stranded by a crash mid-persist (the atomic write's only failure
// residue; see staleTempAge for why only old ones) and counts the
// *.json entries and their bytes. Errors are ignored throughout — the
// walk is hygiene and accounting, and an unreadable directory must not
// fail the store any more than it fails a lookup.
func (s *Store) walk() (entries, bytes uint64) {
	if s.dir == "" {
		return 0, 0
	}
	dirs, _ := os.ReadDir(s.dir)
	cutoff := time.Now().Add(-staleTempAge)
	for _, d := range dirs {
		// Shard directories are the key prefixes, two lowercase hex digits;
		// everything else at the top level (campaign journals) is not ours.
		if name := d.Name(); !d.IsDir() || len(name) != 2 || !lowerHex(name) {
			continue
		}
		dir := filepath.Join(s.dir, d.Name())
		files, _ := os.ReadDir(dir)
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			name := f.Name()
			switch {
			case strings.Contains(name, ".tmp"):
				if info, err := f.Info(); err == nil && info.ModTime().Before(cutoff) {
					os.Remove(filepath.Join(dir, name))
				}
			case strings.HasSuffix(name, ".json"):
				if info, err := f.Info(); err == nil {
					entries++
					bytes += uint64(info.Size())
				}
			}
		}
	}
	return entries, bytes
}

// Dir returns the store's on-disk directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// DefaultRemoteTimeout bounds each remote Get/Put when SetRemote is
// given no explicit timeout: long enough for a cold object store, short
// enough that a black-holed remote cannot stall a sweep cell for long.
const DefaultRemoteTimeout = 10 * time.Second

// SetRemote attaches (or, with nil, detaches) a remote backend. timeout
// bounds each remote call (<= 0: DefaultRemoteTimeout). Call before the
// store is shared across goroutines — the field is not synchronized, by
// the same construction-time contract as Open's parameters.
func (s *Store) SetRemote(r Remote, timeout time.Duration) {
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	s.remote = r
	s.remoteTimeout = timeout
}

// remoteGet consults the remote backend (if any), degrading every
// failure to a counted miss. A hit is persisted locally so the next
// lookup never leaves the process.
func (s *Store) remoteGet(key string) (sim.Result, bool) {
	if s.remote == nil {
		return sim.Result{}, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.remoteTimeout)
	defer cancel()
	res, found, err := s.remote.Get(ctx, key)
	switch {
	case err != nil:
		s.remoteErrors.Add(1)
		return sim.Result{}, false
	case !found:
		s.remoteMisses.Add(1)
		return sim.Result{}, false
	}
	s.remoteHits.Add(1)
	s.persist(key, res)
	return res, true
}

// remotePut publishes a freshly computed result, best-effort.
func (s *Store) remotePut(key string, res sim.Result) {
	if s.remote == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.remoteTimeout)
	defer cancel()
	if err := s.remote.Put(ctx, key, res); err != nil {
		s.remoteErrors.Add(1)
	}
}

// Counters returns a snapshot of the store's lookup counters. It reads
// atomics only: this is what a campaign reports when it finishes.
func (s *Store) Counters() Counters {
	return Counters{
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		Misses:       s.misses.Load(),
		Deduped:      s.deduped.Load(),
		Corrupt:      s.corrupt.Load(),
		Writes:       s.writes.Load(),
		RemoteHits:   s.remoteHits.Load(),
		RemoteMisses: s.remoteMisses.Load(),
		RemoteErrors: s.remoteErrors.Load(),
	}
}

// Stats returns the counters and the disk gauges, walking the shard
// directories once (see walk): the gauges are exact when they are read,
// entries another process or another Store wrote included. Only the
// long-lived processes call it: svard-served's start and bye lines and
// /metrics.
func (s *Store) Stats() Stats {
	st := Stats{Counters: s.Counters()}
	st.Entries, st.DiskBytes = s.walk()
	return st
}

// GetOrCompute returns the stored result for cfg, computing and storing
// it via compute on a miss. Concurrent calls with the same key wait for
// one computation instead of duplicating it. Errors from compute are
// returned to waiters and never cached — with one carve-out: a leader
// that failed with a *cancellation* (context.Canceled/DeadlineExceeded
// anywhere in the chain) reflects its own lifetime, not the cell, so
// coalesced waiters retry with their own compute instead of inheriting
// it (one campaign job's cancellation must not surface as a failure in
// an overlapping job). Genuine compute failures still propagate to all
// waiters, so a deterministically failing cell is not re-executed once
// per waiter.
//
// The key the store derived for cfg is returned on every path, so a
// caller that journals, traces or reports the cell reads it instead of
// deriving it a second time — and never has a key of its own to hand
// back in next to a config.
func (s *Store) GetOrCompute(cfg sim.Config, compute func(sim.Config) (sim.Result, error)) (sim.Result, string, error) {
	key := Key(cfg)

	var c *call
	for {
		s.mu.Lock()
		if el, ok := s.idx[key]; ok {
			s.lru.MoveToFront(el)
			res := copyResult(el.Value.(*entry).res)
			s.mu.Unlock()
			s.memHits.Add(1)
			return res, key, nil
		}
		if inflight, ok := s.flight[key]; ok {
			s.mu.Unlock()
			<-inflight.done
			if inflight.err != nil {
				if isCancellation(inflight.err) {
					continue // the leader was cancelled, not the cell; retry ourselves
				}
				return sim.Result{}, key, inflight.err
			}
			s.deduped.Add(1)
			return copyResult(inflight.res), key, nil
		}
		c = &call{done: make(chan struct{})}
		s.flight[key] = c
		s.mu.Unlock()
		break
	}

	// A compute that panics still settles its call before the panic goes
	// on: a key left in flight would block every coalesced waiter, and
	// every later lookup, forever.
	settled := false
	defer func() {
		if !settled {
			s.settle(key, c, sim.Result{}, fmt.Errorf("cache: computing cell %s panicked", key))
		}
	}()

	res, fromDisk, err := s.load(key)
	if err != nil {
		// No valid local entry: try the remote pool, then compute. A
		// remote failure of any kind degrades to compute — the remote is
		// an accelerator, exactly like the disk layer, and must never
		// fail a sweep.
		if rres, ok := s.remoteGet(key); ok {
			res, err = rres, nil
		} else {
			res, err = compute(cfg)
			if err == nil {
				s.misses.Add(1)
				s.persist(key, res)
				s.remotePut(key, res)
			}
		}
	} else if fromDisk {
		s.diskHits.Add(1)
	}

	settled = true
	s.settle(key, c, res, err)
	if err != nil {
		return sim.Result{}, key, err
	}
	return copyResult(res), key, nil
}

// settle ends the computation c of key: it hands res and err to the
// waiters and releases the key, remembering res if it succeeded.
func (s *Store) settle(key string, c *call, res sim.Result, err error) {
	c.res, c.err = res, err
	s.mu.Lock()
	delete(s.flight, key)
	if err == nil {
		s.remember(key, res)
	}
	s.mu.Unlock()
	close(c.done)
}

// Get returns the stored result for key from memory or disk, without
// computing anything or touching the hit/miss counters: it is the
// observability read behind the service's raw-cell endpoint, and an
// inspection read must not skew the effectiveness counters the
// campaign footer and /metrics report. A disk read is promoted into
// the LRU like any other.
func (s *Store) Get(key string) (sim.Result, bool) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		res := copyResult(el.Value.(*entry).res)
		s.mu.Unlock()
		return res, true
	}
	s.mu.Unlock()
	res, err := s.read(key)
	if err != nil {
		return sim.Result{}, false
	}
	s.mu.Lock()
	s.remember(key, res)
	s.mu.Unlock()
	return copyResult(res), true
}

// remember inserts into the LRU (caller holds s.mu).
func (s *Store) remember(key string, res sim.Result) {
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.idx[key] = s.lru.PushFront(&entry{key: key, res: copyResult(res)})
	for s.lru.Len() > s.lruMax {
		el := s.lru.Back()
		s.lru.Remove(el)
		delete(s.idx, el.Value.(*entry).key)
	}
}

// path shards entries by the first byte of the key so no single
// directory accumulates a paper-scale campaign's worth of files.
// The path is built in one concatenation: it is on every disk read.
func (s *Store) path(key string) string {
	const sep = string(filepath.Separator)
	return s.dir + sep + key[:2] + sep + key + ".json"
}

// read loads and validates one disk entry. Only a well-formed key — 64
// lowercase hex chars, the exact shape Key produces — can name an
// entry; anything else (including path-traversal shapes fed through
// exported lookups like Get) is a plain miss before any
// filesystem access.
//
// The file is read into a buffer on the stack, and a file longer than
// MaxEnvelopeBytes is refused after that many bytes: no entry is read
// whole because it is large. A read that returns less than it had room
// for ends the file on a local disk, so a sealed entry opens in one
// read. If the bytes do not open, reading resumes until a read returns
// nothing, so a short read elsewhere is never taken for corruption.
func (s *Store) read(key string) (sim.Result, error) {
	if s.dir == "" || !WellFormedKey(key) {
		return sim.Result{}, os.ErrNotExist
	}
	p := s.path(key)
	fd, err := syscall.Open(p, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return sim.Result{}, &os.PathError{Op: "open", Path: p, Err: err}
	}
	defer syscall.Close(fd)
	var buf [entryReadBytes]byte
	b, err := readEntry(fd, buf[:0])
	for err == nil {
		res, oerr := OpenEnvelope(key, b)
		if oerr == nil {
			return res, nil
		}
		more, rerr := readEntry(fd, b)
		if rerr == nil && len(more) == len(b) {
			return sim.Result{}, oerr
		}
		b, err = more, rerr
	}
	return sim.Result{}, &os.PathError{Op: "read", Path: p, Err: err}
}

// entryReadBytes is the stack buffer an entry is read into: a sealed
// result is a few hundred bytes, so every entry a sweep writes fits.
const entryReadBytes = 4 << 10

// readEntry appends fd's bytes to b until a read returns less than it
// had room for. It fails once b holds more than MaxEnvelopeBytes.
func readEntry(fd int, b []byte) ([]byte, error) {
	for {
		if len(b) > MaxEnvelopeBytes {
			return nil, fmt.Errorf("over %d bytes", MaxEnvelopeBytes)
		}
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(2*cap(b), MaxEnvelopeBytes+1)), b...)
		}
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, err
		}
		short := len(b)+n < cap(b)
		b = b[:len(b)+n]
		if short {
			return b, nil
		}
	}
}

// load wraps read with the corrupt-entry policy: a missing file is a
// plain miss, anything else unreadable counts as corrupt; both report
// err != nil so the caller recomputes.
func (s *Store) load(key string) (res sim.Result, fromDisk bool, err error) {
	res, err = s.read(key)
	if err == nil {
		return res, true, nil
	}
	if !os.IsNotExist(err) {
		s.corrupt.Add(1)
	}
	return sim.Result{}, false, err
}

// persist writes an entry atomically (temp file + fsync + rename), so a
// crash mid-write leaves at worst a stray temp file, never a torn entry
// read back as valid: the fsync forces the temp file's bytes to stable
// storage *before* the rename publishes the name, closing the window in
// which a power loss could leave a renamed-but-empty (or partially
// written) entry — the classic torn-write-through-rename hazard. The
// content sum in the envelope is the second line of defense, catching
// whatever slips past. Write failures are deliberately swallowed: the
// cache is an accelerator, and a read-only or full disk must not fail a
// sweep whose computation already succeeded.
func (s *Store) persist(key string, res sim.Result) {
	if s.dir == "" || len(key) < 2 {
		return
	}
	b, err := Seal(key, res)
	if err != nil {
		return
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), p) != nil {
		os.Remove(tmp.Name())
		return
	}
	s.writes.Add(1)
}

// Put inserts a result computed elsewhere under its content-addressed
// key — the fabric coordinator stores the cells it takes delivery of
// through it, and the coordinator's object-store PUT endpoint lands
// here. A key names one result, so an entry the in-memory LRU already
// holds is not written again: a cell a worker published and then
// delivered costs one write. Otherwise the entry enters the LRU, and the
// disk layer best-effort (same swallowed-write policy as persist). Only
// the exact key shape Key produces is accepted.
func (s *Store) Put(key string, res sim.Result) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	_, held := s.idx[key]
	s.remember(key, res)
	s.mu.Unlock()
	if !held {
		s.persist(key, res)
	}
	return nil
}

// WellFormedKey reports whether key has the exact shape Key produces: 64
// lowercase hex characters, nothing else. Every layer that turns an
// externally supplied key into a store lookup (the service's cells
// endpoint, the fabric's object store) checks it first — an unvalidated
// key could otherwise traverse out of the cache directory.
func WellFormedKey(key string) bool {
	return len(key) == hexLen && lowerHex(key)
}

// checkKey is WellFormedKey as the error every call that refuses a key
// returns.
func checkKey(key string) error {
	if !WellFormedKey(key) {
		return fmt.Errorf("cache: malformed key %q: want 64 lowercase hex chars", key)
	}
	return nil
}

// isCancellation reports whether err stems from a cancelled or expired
// context rather than the computation itself. Callers that cancel with
// a custom cause should wrap context.Canceled so their waiters-must-
// retry intent survives (the campaign service's scheduler does).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// copyResult deep-copies a result so cached entries are immune to caller
// mutation (Result carries a per-core IPC slice).
func copyResult(r sim.Result) sim.Result {
	if r.IPC != nil {
		r.IPC = append([]float64(nil), r.IPC...)
	}
	return r
}
