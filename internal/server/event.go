package server

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// Event is one record of a job's progress stream: a state transition or
// a completed cell. Seq is the event's index in the job's stream, so a
// reconnecting client resumes from where it stopped (?from=Seq). Key is
// the completed cell's content address — its unambiguous identity,
// resolvable via GET /api/v1/cells/{key} (Label is human-oriented).
type Event struct {
	Seq   int       `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"` // "state" or "cell"
	State State     `json:"state,omitempty"`
	Label string    `json:"label,omitempty"` // completed cell's label (type "cell")
	Key   string    `json:"key,omitempty"`   // completed cell's cache key (type "cell")
	Done  int       `json:"done,omitempty"`  // cells completed so far
	Total int       `json:"total"`
	Error string    `json:"error,omitempty"`
}

// The event wire. The stream's one form is what json.Marshal writes for
// an Event; AppendJSON writes it without reflection and ParseEvent reads
// it back in one pass. Both keep json's exact behaviour by handing
// anything outside the common case to encoding/json: a string json
// would escape, a time json refuses or writes with an offset, a line not
// in the appender's canonical shape.

// AppendJSON appends the event as json.Marshal encodes it, and fails
// exactly when json.Marshal does (a time outside years 0–9999 or with a
// zone hour past 23).
func (ev *Event) AppendJSON(b []byte) ([]byte, error) {
	n0 := len(b)
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, `,"time":"`...)
	t0 := len(b)
	b = ev.Time.AppendFormat(b, time.RFC3339Nano)
	// time.MarshalJSON's own check: a four-digit year, and a zone it
	// writes as an offset only when the hour is in range. "Z" needs none.
	if b[t0+len("2006")] != '-' || b[len(b)-1] != 'Z' {
		tb, err := json.Marshal(ev.Time)
		if err != nil {
			return b[:n0], err
		}
		b = append(b[:t0-1], tb...)
	} else {
		b = append(b, '"')
	}
	b = append(b, `,"type":`...)
	b = appendString(b, ev.Type)
	if ev.State != "" {
		b = append(b, `,"state":`...)
		b = appendString(b, string(ev.State))
	}
	if ev.Label != "" {
		b = append(b, `,"label":`...)
		b = appendString(b, ev.Label)
	}
	if ev.Key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, ev.Key)
	}
	if ev.Done != 0 {
		b = append(b, `,"done":`...)
		b = strconv.AppendInt(b, int64(ev.Done), 10)
	}
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(ev.Total), 10)
	if ev.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, ev.Error)
	}
	return append(b, '}'), nil
}

// ParseEvent decodes one line of the stream. A line in AppendJSON's
// canonical shape — its fields in its order, strings without escapes,
// plain integers — is read in one pass; any other line goes to
// json.Unmarshal. Either way the event and the error are json.Unmarshal's.
func ParseEvent(line []byte) (Event, error) {
	if ev, ok := parseCanonical(line); ok {
		return ev, nil
	}
	var ev Event
	err := json.Unmarshal(line, &ev)
	return ev, err
}

// plainByte marks the bytes json.Marshal writes unescaped in a string
// (printable ASCII but '"', '\\', and the HTML '<', '>', '&').
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as json.Marshal quotes it: a plain string as
// is, any other through json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// parseCanonical reads a line AppendJSON could have written with every
// string plain, or reports false. All it accepts
// json.Unmarshal accepts and decodes to the same event: the fields are
// the struct's exact names, once each; the strings hold only printable
// ASCII but '"' and '\\' (which json reads as written); the integers
// are JSON integers that fit; the time goes through time.Time's own
// UnmarshalJSON, as json would pass it.
func parseCanonical(line []byte) (Event, bool) {
	var ev Event
	p := wireParser{b: line}
	var label, key, typ, state, errMsg [2]int // string spans in line
	ok := p.lit(`{"seq":`) && p.int(&ev.Seq) && p.lit(`,"time":`)
	t0 := p.i
	ok = ok && p.str(nil) && ev.Time.UnmarshalJSON(line[t0:p.i]) == nil &&
		p.lit(`,"type":`) && p.str(&typ)
	if ok && p.lit(`,"state":`) {
		ok = p.str(&state)
	}
	if ok && p.lit(`,"label":`) {
		ok = p.str(&label)
	}
	if ok && p.lit(`,"key":`) {
		ok = p.str(&key)
	}
	if ok && p.lit(`,"done":`) {
		ok = p.int(&ev.Done)
	}
	ok = ok && p.lit(`,"total":`) && p.int(&ev.Total)
	if ok && p.lit(`,"error":`) {
		ok = p.str(&errMsg)
	}
	if !ok || !p.lit("}") || p.i != len(line) {
		return Event{}, false
	}
	// One string for the line; every field is a substring of it.
	s := string(line)
	ev.Type = s[typ[0]:typ[1]]
	ev.State = State(s[state[0]:state[1]])
	ev.Label = s[label[0]:label[1]]
	ev.Key = s[key[0]:key[1]]
	ev.Error = s[errMsg[0]:errMsg[1]]
	return ev, true
}

// wireParser is parseCanonical's cursor over one line.
type wireParser struct {
	b []byte
	i int
}

// lit consumes s if the line continues with it.
func (p *wireParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// str consumes a quoted string without escapes, recording the span of
// its contents in span (when non-nil).
func (p *wireParser) str(span *[2]int) bool {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return false
	}
	start := p.i + 1
	for j := start; j < len(p.b); j++ {
		c := p.b[j]
		if c == '"' {
			if span != nil {
				*span = [2]int{start, j}
			}
			p.i = j + 1
			return true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return false
}

// int consumes a JSON integer that fits an int: an optional '-', then
// "0" or a nonzero digit followed by digits.
func (p *wireParser) int(v *int) bool {
	j := p.i
	neg := j < len(p.b) && p.b[j] == '-'
	if neg {
		j++
	}
	start := j
	var n uint64
	for j < len(p.b) && '0' <= p.b[j] && p.b[j] <= '9' {
		n = n*10 + uint64(p.b[j]-'0')
		j++
	}
	// Nineteen digits cannot wrap a uint64; the bound is int's.
	digits := j - start
	if digits == 0 || digits > 19 || (digits > 1 && p.b[start] == '0') {
		return false
	}
	if neg && n > -math.MinInt || !neg && n > math.MaxInt {
		return false
	}
	*v = int(n) // 1<<63 wraps to math.MinInt, which negates to itself
	if neg {
		*v = -*v
	}
	p.i = j
	return true
}
