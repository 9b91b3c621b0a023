package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"
)

// sameEvent compares two events field by field and their times as
// instants with the same offset: the wire carries a zone's offset, not
// its name or *time.Location.
func sameEvent(a, b Event) bool {
	_, ao := a.Time.Zone()
	_, bo := b.Time.Zone()
	ta, tb := a.Time, b.Time
	a.Time, b.Time = time.Time{}, time.Time{}
	return a == b && ta.Equal(tb) && ao == bo
}

// FuzzEventWire: the progress stream's encoder and decoder are exact
// stand-ins for encoding/json. For a fuzzed event, AppendJSON writes the
// bytes json.Marshal writes, or fails with its error; ParseEvent reads
// them back to the event (to json's reading of it, where json replaces
// invalid UTF-8), through the canonical path whenever every string is
// plain. For arbitrary bytes, ParseEvent returns json.Unmarshal's event
// and error.
func FuzzEventWire(f *testing.F) {
	now := time.Date(2026, 10, 20, 12, 6, 8, 123456789, time.UTC)
	key := hex.EncodeToString(make([]byte, 32))
	year := func(y int) int64 { return time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC).Unix() }
	type seed struct {
		seq         int
		sec, nsec   int64
		zone        int
		typ, state  string
		label, key  string
		done, total int
		errMsg      string
		raw         string
	}
	canonical := `{"seq":7,"time":"2026-10-20T12:06:08.123456789Z","type":"cell","label":"rrs nRH=64 M0 svard [mcf06,ycsb-a]","key":"` + key + `","done":5,"total":42}`
	for _, s := range []seed{
		{0, now.Unix(), 0, 0, "state", "queued", "", "", 0, 42, "", canonical},
		{7, now.Unix(), int64(now.Nanosecond()), 0, "cell", "", "rrs nRH=64 M0 svard [mcf06,ycsb-a]", key, 5, 42, "",
			`{"seq":7,"time":"2026-10-20T12:06:08Z","type":"state","state":"done","done":42,"total":42,"error":"x"}`},
		{44, now.Unix(), 1, 0, "state", "failed", "", "", 3, 42, `job 3: cell "a<b>&c" failed: \ tab	`,
			` {"seq":1,"time":"2026-10-20T12:06:08Z","type":"state","total":1} `},
		{1, now.Unix(), 0, 0, "cell", "", "\x01ctl\x1f", "\xff\xfe", 1, 2, "\u2028\u2029é",
			`{"SEQ":1,"time":"2026-10-20T12:06:08Z","type":"state","total":1}`},
		{2, now.Unix(), 0, 0, "<", ">", "&", `C:\dir`, 0, 1, "",
			`{"seq":1,"time":"2026-10-20T12:06:08Z","type":"st\u0061te","total":1}`},
		{0, -62135596800, 0, 0, "", "", "", "", 0, 0, "", // time.Time{}
			`{"seq":1,"seq":2,"time":"2026-10-20T12:06:08Z","type":"state","total":1}`},
		{0, year(0), 0, 0, "state", "", "", "", 0, 0, "", `{"seq":01,"time":"2026-10-20T12:06:08Z","type":"state","total":1}`},
		{0, year(-1), 0, 0, "state", "", "", "", 0, 0, "", `{"seq":1e2,"time":"2026-10-20T12:06:08Z","type":"state","total":1}`},
		{0, year(9999), 999999999, 0, "state", "", "", "", 0, 0, "", `{"seq":-0,"time":"2026-10-20T12:06:08Z","type":"state","total":1}`},
		{0, year(10000), 0, 0, "state", "", "", "", 0, 0, "", `{"seq":99999999999999999999,"time":"2026-10-20T12:06:08Z","type":"state","total":1}`},
		{0, now.Unix(), 0, 60, "state", "", "", "", 0, 0, "", `{"seq":3,"time":"2026-10-`},
		{0, now.Unix(), 0, -30, "state", "", "", "", 0, 0, "", `{"seq":1,"time":"2026-10-20T12:06:08+01:00","type":"state","total":1}`},
		{0, now.Unix(), 0, 24 * 60, "state", "", "", "", 0, 0, "", `{"seq":1,"time":null,"type":"state","total":1}`},
		{math.MaxInt64, now.Unix(), 0, 0, "state", "", "", "", math.MinInt64, -1, "", `{"seq":1,"time":"2026-10-20T12:06:08Z","type":"A","total":1}`},
		{-1, now.Unix(), 0, 0, "cell", "", "", "", -5, 0, "", `{"seq":1,"time":"2026-10-20T12:06:08Z","type":"state","total":1}}`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", `{"seq":1,"time":"2026-10-20T12:06:08Z","type":"st` + "\x7f" + `","total":1}`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", `{"seq":1,"time":"","type":"state","total":1}`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", `{"seq":1,"time":"2026-10-20T12:06:08Z","type":"state","state":"","done":0,"total":1,"error":""}`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", `{"seq":1,"time":"2026-10-20T12:06:08Z","type":"state","total":1.5}`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", `{}`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", `null`},
		{0, now.Unix(), 0, 0, "cell", "", "", "", 0, 0, "", ``},
	} {
		f.Add(s.seq, s.sec, s.nsec, s.zone, s.typ, s.state, s.label, s.key, s.done, s.total, s.errMsg, []byte(s.raw))
	}
	f.Fuzz(func(t *testing.T, seq int, sec, nsec int64, zone int, typ, state, label, key string, done, total int, errMsg string, raw []byte) {
		tm := time.Unix(sec, nsec).UTC()
		if zone != 0 { // minutes east of UTC, RFC 3339's unit
			tm = tm.In(time.FixedZone("", zone*60))
		}
		ev := Event{Seq: seq, Time: tm, Type: typ, State: State(state), Label: label, Key: key, Done: done, Total: total, Error: errMsg}

		want, werr := json.Marshal(ev)
		got, gerr := ev.AppendJSON([]byte("prefix"))
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("AppendJSON err %v, json.Marshal err %v", gerr, werr)
		case werr != nil && gerr.Error() != werr.Error():
			t.Fatalf("AppendJSON err %q, json.Marshal err %q", gerr, werr)
		case werr != nil && string(got) != "prefix":
			t.Fatalf("failed AppendJSON left %q", got)
		case werr == nil && string(got) != "prefix"+string(want):
			t.Fatalf("AppendJSON wrote\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
		}

		if werr == nil {
			line := got[len("prefix"):]
			back, err := ParseEvent(line)
			if err != nil {
				t.Fatalf("ParseEvent(%s): %v", line, err)
			}
			var viaJSON Event
			if err := json.Unmarshal(line, &viaJSON); err != nil || !reflect.DeepEqual(back, viaJSON) {
				t.Fatalf("ParseEvent(%s) = %+v, json.Unmarshal = %+v (%v)", line, back, viaJSON, err)
			}
			plain, valid := true, true
			for _, s := range []string{typ, state, label, key, errMsg} {
				valid = valid && utf8.ValidString(s)
				for i := 0; i < len(s); i++ {
					plain = plain && plainByte[s[i]]
				}
			}
			if valid && !sameEvent(back, ev) {
				t.Fatalf("round trip of %+v read %+v", ev, back)
			}
			if _, ok := parseCanonical(line); plain && !ok {
				t.Fatalf("canonical path refused %s", line)
			}
		}

		got2, gerr := ParseEvent(raw)
		var want2 Event
		werr = json.Unmarshal(raw, &want2)
		if (gerr == nil) != (werr == nil) || (werr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("ParseEvent(%q) err %v, json.Unmarshal err %v", raw, gerr, werr)
		}
		if !reflect.DeepEqual(got2, want2) {
			t.Fatalf("ParseEvent(%q) = %+v, json.Unmarshal = %+v", raw, got2, want2)
		}
	})
}

// jobLog is a 42-cell job's event log as the scheduler writes it:
// queued, running, one event per cell, done.
func jobLog() []Event {
	const cells = 42
	t := time.Date(2026, 10, 20, 12, 6, 8, 0, time.UTC)
	evs := []Event{{Type: "state", State: StateQueued}, {Type: "state", State: StateRunning}}
	for i := 1; i <= cells; i++ {
		sum := sha256.Sum256([]byte{byte(i)})
		evs = append(evs, Event{Type: "cell", Key: hex.EncodeToString(sum[:]), Done: i,
			Label: fmt.Sprintf("rrs nRH=%d M0 svard [mcf06,ycsb-a,lbm06,tpcc]", 64<<(i%5))})
	}
	evs = append(evs, Event{Type: "state", State: StateDone, Done: cells})
	for i := range evs {
		evs[i].Seq, evs[i].Total = i, cells
		evs[i].Time = t.Add(time.Duration(i) * 37 * time.Microsecond)
	}
	return evs
}

// BenchmarkEventWire encodes a 42-cell job's 45 events as the stream
// does and parses them back as the client does, per op: "json" with
// json.Encoder and json.Unmarshal, "wire" with AppendJSON and ParseEvent.
func BenchmarkEventWire(b *testing.B) {
	evs := jobLog()
	parseAll := func(b *testing.B, body []byte, parse func([]byte) (Event, error)) {
		n := 0
		for len(body) > 0 {
			var line []byte
			line, body, _ = bytes.Cut(body, []byte("\n"))
			ev, err := parse(line)
			if err != nil || ev.Seq != n {
				b.Fatalf("line %d: seq %d, %v", n, ev.Seq, err)
			}
			n++
		}
		if n != len(evs) {
			b.Fatalf("parsed %d events, want %d", n, len(evs))
		}
	}
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		unmarshal := func(line []byte) (ev Event, err error) {
			err = json.Unmarshal(line, &ev)
			return ev, err
		}
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					b.Fatal(err)
				}
			}
			parseAll(b, buf.Bytes(), unmarshal)
		}
	})
	b.Run("wire", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			buf = buf[:0]
			for i := range evs {
				var err error
				if buf, err = evs[i].AppendJSON(buf); err != nil {
					b.Fatal(err)
				}
				buf = append(buf, '\n')
			}
			parseAll(b, buf, ParseEvent)
		}
	})
}
