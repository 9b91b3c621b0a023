package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svard/internal/cache"
	"svard/internal/obs"
	"svard/internal/sim"
)

// TestCellRun pins the contract of the one cell path, case by case. Every
// scenario gets a fresh disk-backed store, a one-slot Cell over a counting
// fake simulator, and returns what the call under test observed; the
// shared assertions then check attribution, the returned key, the error,
// how often the simulator ran, that no slot leaked, that only successes
// are cached, and — when a recorder rode along — that exactly one
// cache-outcome counter is set.
func TestCellRun(t *testing.T) {
	cfg := tinySpec().Base
	cfg.Mix = []string{"mcf06", "lbm06"}
	cfg.Defense = "para"
	boom := errors.New("simulation blew up")
	gone := fmt.Errorf("job gone (%w)", context.Canceled)
	bg := context.Background()

	type seen struct {
		key      string
		computed bool
		rec      *obs.Recorder
		err      error
	}
	// parkOnSlot starts a leader whose compute callback queues for the
	// (test-held) slot, and a waiter that coalesces onto its flight. The
	// cache exposes no "waiter parked" event, so the sleeps only make the
	// coalescing overwhelmingly likely; every assertion below also holds
	// for a waiter that arrives late.
	parkOnSlot := func(c *Cell, leaderCtx context.Context) (leader, waiter chan seen) {
		leader, waiter = make(chan seen, 1), make(chan seen, 1)
		c.Slots <- struct{}{}
		go func() {
			_, key, computed, err := c.Run(leaderCtx, cfg, nil)
			leader <- seen{key: key, computed: computed, err: err}
		}()
		time.Sleep(10 * time.Millisecond) // let the leader take the flight
		go func() {
			_, key, computed, err := c.Run(bg, cfg, nil)
			waiter <- seen{key: key, computed: computed, err: err}
		}()
		time.Sleep(10 * time.Millisecond) // let the waiter coalesce
		return leader, waiter
	}

	for _, tc := range []struct {
		name         string
		scenario     func(t *testing.T, c *Cell) seen
		wantComputed bool
		wantErr      error // errors.Is target; nil: success
		wantCalls    int64 // simulator executions across the scenario
	}{
		{
			name: "miss-computed",
			scenario: func(t *testing.T, c *Cell) seen {
				res, key, computed, err := c.Run(bg, cfg, nil)
				if want, _ := fakeSim(cfg); !reflect.DeepEqual(res, want) {
					t.Errorf("result = %+v, want %+v", res, want)
				}
				return seen{key: key, computed: computed, err: err}
			},
			wantComputed: true, wantCalls: 1,
		},
		{
			name: "hit-served",
			scenario: func(t *testing.T, c *Cell) seen {
				if _, _, _, err := c.Run(bg, cfg, nil); err != nil {
					t.Fatal(err)
				}
				_, key, computed, err := c.Run(bg, cfg, nil)
				return seen{key: key, computed: computed, err: err}
			},
			wantComputed: false, wantCalls: 1,
		},
		{
			name: "coalesced-waiter-served",
			scenario: func(t *testing.T, c *Cell) seen {
				leader, waiter := parkOnSlot(c, bg)
				<-c.Slots // hand the leader its slot
				if l := <-leader; l.err != nil || !l.computed {
					t.Errorf("leader: computed=%v err=%v, want computed", l.computed, l.err)
				}
				return <-waiter
			},
			wantComputed: false, wantCalls: 1,
		},
		{
			// The leader is cancelled while queued for a slot; the waiter
			// must not inherit that — it retries the cell itself.
			name: "waiter-survives-cancelled-leader",
			scenario: func(t *testing.T, c *Cell) seen {
				ctx, cancel := context.WithCancelCause(bg)
				leader, waiter := parkOnSlot(c, ctx)
				cancel(gone)
				if l := <-leader; !errors.Is(l.err, gone) || l.computed {
					t.Errorf("leader: computed=%v err=%v, want its own cancellation cause", l.computed, l.err)
				}
				<-c.Slots // now the retrying waiter can have the slot
				return <-waiter
			},
			wantComputed: true, wantCalls: 1,
		},
		{
			// Surfaced by the cell path; and through the engine neither
			// counted nor journaled.
			name: "simulator-error",
			scenario: func(t *testing.T, c *Cell) seen {
				c.Sim = func(sim.Config) (sim.Result, error) { return sim.Result{}, boom }
				spec := tinySpec()
				spec.Figures = []string{Fig12}
				eng := &Engine{Store: c.Store, Workers: 1, Sim: c.Sim, Slots: c.Slots}
				if out, err := eng.RunCtx(bg, spec); !errors.Is(err, boom) || out != nil {
					t.Errorf("engine: outcome %+v, err %v; want no outcome and the simulator's error", out, err)
				}
				b, err := os.ReadFile(journalPath(c.Store.Dir(), spec.Fingerprint()))
				if err != nil {
					t.Fatal(err)
				}
				if lines := strings.Split(strings.TrimSpace(string(b)), "\n"); len(lines) != 1 {
					t.Errorf("journal holds %d lines, want the header alone:\n%s", len(lines), b)
				}
				_, key, computed, err := c.Run(bg, cfg, nil)
				return seen{key: key, computed: computed, err: err}
			},
			wantComputed: true, wantErr: boom, wantCalls: 0,
		},
		{
			name: "cancelled-while-queued-for-slot",
			scenario: func(t *testing.T, c *Cell) seen {
				ctx, cancel := context.WithCancelCause(bg)
				c.Slots <- struct{}{} // every worker busy
				done := make(chan seen, 1)
				go func() {
					_, key, computed, err := c.Run(ctx, cfg, nil)
					done <- seen{key: key, computed: computed, err: err}
				}()
				time.Sleep(10 * time.Millisecond)
				cancel(gone)
				s := <-done
				<-c.Slots
				return s
			},
			wantComputed: false, wantErr: gone, wantCalls: 0,
		},
		{
			name: "recorder-on-a-miss",
			scenario: func(t *testing.T, c *Cell) seen {
				rec := &obs.Recorder{}
				_, key, computed, err := c.Run(bg, cfg, rec)
				return seen{key: key, computed: computed, rec: rec, err: err}
			},
			wantComputed: true, wantCalls: 1,
		},
		{
			name: "recorder-on-a-hit",
			scenario: func(t *testing.T, c *Cell) seen {
				if _, _, _, err := c.Run(bg, cfg, nil); err != nil {
					t.Fatal(err)
				}
				rec := &obs.Recorder{}
				_, key, computed, err := c.Run(bg, cfg, rec)
				if rec.Dur(obs.PhaseLookup) <= 0 {
					t.Error("a served cell stamped no lookup span")
				}
				return seen{key: key, computed: computed, rec: rec, err: err}
			},
			wantComputed: false, wantCalls: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			c := &Cell{
				Store: newStore(t, t.TempDir()),
				Sim: func(cfg sim.Config) (sim.Result, error) {
					calls.Add(1)
					return fakeSim(cfg)
				},
				Slots: make(chan struct{}, 1),
			}
			got := tc.scenario(t, c)

			if got.computed != tc.wantComputed {
				t.Errorf("computed = %v, want %v", got.computed, tc.wantComputed)
			}
			// On every path, failures and cancellations included: the trace
			// records failed cells by key.
			if want := cache.Key(cfg); got.key != want {
				t.Errorf("key = %q, want the cell's cache key %q", got.key, want)
			}
			if !errors.Is(got.err, tc.wantErr) {
				t.Errorf("err = %v, want %v", got.err, tc.wantErr)
			}
			if calls.Load() != tc.wantCalls {
				t.Errorf("simulator ran %d times, want %d", calls.Load(), tc.wantCalls)
			}
			if n := len(c.Slots); n != 0 {
				t.Errorf("%d slots still held after the call returned", n)
			}
			if cached := c.Store.Contains(cache.Key(cfg)); cached != (tc.wantErr == nil) {
				t.Errorf("cached = %v after err = %v (only successes persist)", cached, got.err)
			}
			if got.rec != nil {
				cc, cs := got.rec.Counters.CellsComputed, got.rec.Counters.CellsServed
				if cc+cs != 1 || (cc == 1) != got.computed {
					t.Errorf("recorder: CellsComputed=%d CellsServed=%d with computed=%v; want exactly one, matching", cc, cs, got.computed)
				}
			}
		})
	}
}
