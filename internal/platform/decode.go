package platform

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"stellar/internal/lustre"
	"stellar/internal/workload"
)

// decodeRecording parses data, which must be exactly the bytes
// json.Marshal writes for a Recording filed under key, in one pass. The key
// field comes first and is compared before anything else is decoded. Numbers
// go through the strconv calls encoding/json makes, so every value is
// bit-identical to what json.Unmarshal would give; a string holding an
// escape is unquoted by encoding/json, that token alone. Any other layout
// is a corrupt recording.
//
// The layout is pinned field by field: a field added to or reordered in
// Recording, RunResult, lustre.Result or lustre.Event must be added here
// too (TestRecordingLayout fails until it is).
func decodeRecording(data []byte, key string) (*Recording, error) {
	r := recReader{b: data}
	r.lit(`{"key":`)
	got, esc := r.strToken()
	if r.err == nil && (esc || string(got[1:len(got)-1]) != key) {
		k := r.unquote(got, esc)
		if r.err == nil && k != key {
			return nil, fmt.Errorf("platform: mislabelled recording %.12s: its key field reads %.12s", key, k)
		}
	}
	rec := &Recording{Key: key}
	r.lit(`,"workload":`)
	rec.Workload = r.str()
	r.lit(`,"seed":`)
	rec.Seed = r.int(64)
	r.lit(`,"result":{"wall_time_s":`)
	rec.Result.WallTime = r.float()
	if r.opt(`,"clamped":`) {
		if rec.Result.Clamped = list(&r, r.str); len(rec.Result.Clamped) == 0 {
			r.fail("a non-empty clamped list")
		}
	}
	r.lit(`,"result":`)
	if !r.opt("null") {
		rec.Result.Result = r.result()
	}
	r.lit("}")
	if r.opt(`,"events":`) {
		if rec.Events = list(&r, r.event); len(rec.Events) == 0 {
			r.fail("a non-empty events list")
		}
	}
	r.lit("}")
	if r.err == nil && r.p != len(r.b) {
		r.fail("the end of the file")
	}
	if r.err != nil {
		return nil, fmt.Errorf("platform: corrupt recording %.12s: %w", key, r.err)
	}
	return rec, nil
}

// result reads a lustre.Result object.
func (r *recReader) result() *lustre.Result {
	var res lustre.Result
	r.lit(`{"WallTime":`)
	res.WallTime = r.float()
	r.lit(`,"BytesRead":`)
	res.BytesRead = r.int(64)
	r.lit(`,"BytesWritten":`)
	res.BytesWritten = r.int(64)
	r.lit(`,"DataRPCs":`)
	res.DataRPCs = r.uint()
	r.lit(`,"MetaRPCs":`)
	res.MetaRPCs = r.uint()
	r.lit(`,"CacheHits":`)
	res.CacheHits = r.uint()
	r.lit(`,"RAHits":`)
	res.RAHits = r.uint()
	r.lit(`,"RAWasted":`)
	res.RAWasted = r.int(64)
	r.lit(`,"StatHits":`)
	res.StatHits = r.uint()
	r.lit(`,"LastDataRPC":`)
	res.LastDataRPC = r.float()
	r.lit(`,"LastMetaRPC":`)
	res.LastMetaRPC = r.float()
	r.lit(`,"FaultStalls":`)
	res.FaultStalls = r.uint()
	r.lit(`,"FaultStallSec":`)
	res.FaultStallSec = r.float()
	r.lit(`,"BarrierTimes":`)
	res.BarrierTimes = list(r, r.float)
	r.lit(`,"Clamped":`)
	res.Clamped = list(r, r.str)
	r.lit("}")
	return &res
}

// event reads one lustre.Event object.
func (r *recReader) event() lustre.Event {
	var ev lustre.Event
	r.lit(`{"Rank":`)
	ev.Rank = int(r.int(0))
	r.lit(`,"Op":`)
	ev.Op = workload.OpType(r.int(0))
	r.lit(`,"File":`)
	ev.File = int32(r.int(32))
	r.lit(`,"Offset":`)
	ev.Offset = r.int(64)
	r.lit(`,"Size":`)
	ev.Size = r.int(64)
	r.lit(`,"Start":`)
	ev.Start = r.float()
	r.lit(`,"End":`)
	ev.End = r.float()
	r.lit(`,"CacheHit":`)
	ev.CacheHit = r.bool()
	r.lit(`,"Sequential":`)
	ev.Sequential = r.bool()
	r.lit("}")
	return ev
}

// list reads a slice as json.Marshal writes it: null for nil, [] for an
// empty slice, else its elements read by elem.
func list[T any](r *recReader, elem func() T) []T {
	if r.opt("null") {
		return nil
	}
	r.lit("[")
	if r.opt("]") {
		return []T{}
	}
	out := make([]T, 0, 4)
	for r.err == nil {
		out = append(out, elem())
		if !r.opt(",") {
			break
		}
	}
	r.lit("]")
	return out
}

// recReader walks a recording's bytes. Its first failure sticks: later
// reads return zero values and consume nothing, so a decoder reads the
// layout straight through and checks err once at the end.
type recReader struct {
	b   []byte
	p   int
	err error
}

func (r *recReader) fail(want string) {
	if r.err == nil {
		r.err = fmt.Errorf("byte %d: want %s", r.p, want)
	}
}

func (r *recReader) has(s string) bool {
	return len(r.b)-r.p >= len(s) && string(r.b[r.p:r.p+len(s)]) == s
}

// lit consumes s, which must come next.
func (r *recReader) lit(s string) {
	if r.err != nil {
		return
	}
	if !r.has(s) {
		r.fail(strconv.Quote(s))
		return
	}
	r.p += len(s)
}

// opt consumes s if it comes next and reports whether it did.
func (r *recReader) opt(s string) bool {
	if r.err != nil || !r.has(s) {
		return false
	}
	r.p += len(s)
	return true
}

// strToken consumes a string token and returns it with its quotes, and
// whether it holds an escape. Unescaped text must be valid UTF-8 with no
// control characters, which is all json.Marshal writes unescaped.
func (r *recReader) strToken() (tok []byte, esc bool) {
	if r.err != nil {
		return nil, false
	}
	b, start := r.b, r.p
	if start >= len(b) || b[start] != '"' {
		r.fail("a string")
		return nil, false
	}
	ascii := true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if !ascii && !esc && !utf8.Valid(b[start+1:i]) {
				r.fail("valid UTF-8")
				return nil, false
			}
			r.p = i + 1
			return b[start:r.p], esc
		case c == '\\':
			esc = true
			i++ // the escaped byte never ends the token
		case c < 0x20:
			r.p = i
			r.fail("no control characters in a string")
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.fail("a closed string")
	return nil, false
}

// unquote returns the text of a string token from strToken.
func (r *recReader) unquote(tok []byte, esc bool) string {
	if r.err != nil {
		return ""
	}
	if !esc {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		r.err = err
	}
	return s
}

func (r *recReader) str() string {
	return r.unquote(r.strToken())
}

// number consumes a token of JSON's number grammar; strconv accepts more
// (a leading +, hex, inf), so the grammar is checked here first.
func (r *recReader) number() []byte {
	if r.err != nil {
		return nil
	}
	b, i := r.b, r.p
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		r.fail("a number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			r.fail("a digit after the decimal point")
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.fail("an exponent")
			return nil
		}
		i = j
	}
	tok := b[r.p:i]
	r.p = i
	return tok
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// numErr records a strconv failure on a number token.
func (r *recReader) numErr(err error) {
	if r.err == nil && err != nil {
		r.err = fmt.Errorf("byte %d: %w", r.p, err)
	}
}

// float parses as encoding/json does for a float64 field.
func (r *recReader) float() float64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	r.numErr(err)
	return f
}

// int parses as encoding/json does for a signed field of the given bit
// size (0 for int).
func (r *recReader) int(bits int) int64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	r.numErr(err)
	return n
}

// uint parses as encoding/json does for a uint64 field.
func (r *recReader) uint() uint64 {
	tok := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	r.numErr(err)
	return n
}

func (r *recReader) bool() bool {
	if r.opt("true") {
		return true
	}
	r.lit("false")
	return false
}
