package workload

// Trace-replay workload: empirical traffic, not synthetic kinds. A trace
// is a CSV or NDJSON file of either event records — (slot, src, dst), one
// injection each — or rate records — (slot, rate), a piecewise-constant
// per-node arrival-rate schedule sampled from production traffic
// (ServeGen-style ingestion). Replay streams the file one line at a time
// through a fixed-size buffer, so a million-event trace is never resident:
// memory stays O(longest line), pinned by TestTraceReplayAllocBounded.
//
// Trace identity is content-addressed: ScanTrace fingerprints the raw
// bytes (SHA-256) while validating the records, and the fingerprint —
// not the path — enters workload.Spec and the sweep cache key, so editing
// one record recomputes every affected point while a byte-identical trace
// at any path is a warm cache hit.
//
// Record grammar (one record per line; blank lines and '#' comments are
// skipped; an optional leading "slot,src,dst" / "slot,rate" CSV header is
// tolerated):
//
//	CSV events:  slot,src,dst          NDJSON events: {"slot":S,"src":U,"dst":V}
//	CSV rates:   slot,rate             NDJSON rates:  {"slot":S,"rate":R}
//
// Slots must be non-decreasing (the stream is replayed forward once), a
// file holds one record form only, src/dst are non-negative node ids
// (taken modulo the network size at replay, so one trace drives
// differently sized topologies in the same sweep; self-sends after the
// wrap are dropped), and rates are probabilities in [0,1]. A rate record
// applies from its slot until the next record's slot.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"

	"otisnet/internal/sim"
)

// TraceForm distinguishes the two record forms of a trace file.
type TraceForm int

const (
	// TraceEvents is the (slot, src, dst) form: every record is one
	// injection, replayed verbatim.
	TraceEvents TraceForm = iota + 1
	// TraceRates is the (slot, rate) form: a piecewise-constant per-node
	// arrival-rate schedule, sampled per slot like the uniform model.
	TraceRates
)

// String implements fmt.Stringer.
func (f TraceForm) String() string {
	switch f {
	case TraceEvents:
		return "events"
	case TraceRates:
		return "rates"
	default:
		return fmt.Sprintf("TraceForm(%d)", int(f))
	}
}

// maxTraceLine bounds one record line; the streaming reader's buffer
// (and so replay memory) never grows past it.
const maxTraceLine = 1 << 20

// TraceInfo is the result of validating a trace file.
type TraceInfo struct {
	// Fingerprint is the hex SHA-256 of the raw file bytes — the trace's
	// content address, carried into Spec.TraceFP and the sweep cache key.
	Fingerprint string
	Form        TraceForm
	// Records counts data records (comments, blanks and headers excluded).
	Records int
	// MaxSlot is the last record's slot.
	MaxSlot int
}

// ScanTrace streams the file once, validating every record against the
// grammar above and hashing the raw bytes. It is the only sanctioned way
// to build a trace workload spec (NewTraceSpec calls it): replay assumes
// a scanned file and panics on records a scan would have rejected.
func ScanTrace(path string) (TraceInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceInfo{}, fmt.Errorf("workload: trace: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(f, h))
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	info := TraceInfo{}
	lineNo, lastSlot, first := 0, 0, true
	for sc.Scan() {
		lineNo++
		rec, form, skip, err := parseTraceLine(sc.Bytes(), first)
		if err != nil {
			return TraceInfo{}, fmt.Errorf("workload: trace %s:%d: %w", path, lineNo, err)
		}
		if skip {
			continue
		}
		first = false
		if info.Form == 0 {
			info.Form = form
		} else if form != info.Form {
			return TraceInfo{}, fmt.Errorf("workload: trace %s:%d: %s record in a %s trace (one form per file)",
				path, lineNo, form, info.Form)
		}
		if info.Records > 0 && rec.slot < lastSlot {
			return TraceInfo{}, fmt.Errorf("workload: trace %s:%d: slot %d after slot %d (records must be slot-sorted)",
				path, lineNo, rec.slot, lastSlot)
		}
		lastSlot = rec.slot
		info.Records++
		info.MaxSlot = rec.slot
	}
	if err := sc.Err(); err != nil {
		return TraceInfo{}, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	if info.Records == 0 {
		return TraceInfo{}, fmt.Errorf("workload: trace %s: no records", path)
	}
	info.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return info, nil
}

// traceRecord is one parsed data record (src/dst for events, rate for
// rates).
type traceRecord struct {
	slot     int
	src, dst int
	rate     float64
}

// parseTraceLine parses one line. skip reports a comment, blank line or
// (when allowHeader) the CSV header. The parser is hand-rolled over the
// raw bytes — no encoding/json, no string conversion — so the per-slot
// replay loop stays allocation-free in steady state.
func parseTraceLine(line []byte, allowHeader bool) (rec traceRecord, form TraceForm, skip bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return traceRecord{}, 0, true, nil
	}
	if line[0] == '{' {
		rec, form, err = parseTraceJSON(line)
		return rec, form, false, err
	}
	if allowHeader && (asciiEqualFold(line, "slot,src,dst") || asciiEqualFold(line, "slot,rate")) {
		return traceRecord{}, 0, true, nil
	}
	rec, form, err = parseTraceCSV(line)
	return rec, form, false, err
}

// asciiEqualFold is a case-insensitive compare without allocating.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// parseTraceCSV parses "slot,src,dst" (events) or "slot,rate" (rates).
func parseTraceCSV(line []byte) (traceRecord, TraceForm, error) {
	var fields [4][]byte
	n := 0
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ',' {
			if n == len(fields) {
				return traceRecord{}, 0, fmt.Errorf("too many CSV fields (want slot,src,dst or slot,rate)")
			}
			fields[n] = bytes.TrimSpace(line[start:i])
			n++
			start = i + 1
		}
	}
	slot, ok := parseTraceInt(fields[0])
	if !ok || slot < 0 {
		return traceRecord{}, 0, fmt.Errorf("bad slot %q", fields[0])
	}
	switch n {
	case 3:
		src, ok1 := parseTraceInt(fields[1])
		dst, ok2 := parseTraceInt(fields[2])
		if !ok1 || !ok2 || src < 0 || dst < 0 {
			return traceRecord{}, 0, fmt.Errorf("bad event ids %q,%q (want non-negative node ids)", fields[1], fields[2])
		}
		return traceRecord{slot: slot, src: src, dst: dst}, TraceEvents, nil
	case 2:
		rate, ok := parseTraceFloat(fields[1])
		if !ok || rate < 0 || rate > 1 {
			return traceRecord{}, 0, fmt.Errorf("bad rate %q (want a probability in [0,1])", fields[1])
		}
		return traceRecord{slot: slot, rate: rate}, TraceRates, nil
	default:
		return traceRecord{}, 0, fmt.Errorf("%d CSV fields (want slot,src,dst or slot,rate)", n)
	}
}

// parseTraceJSON parses a flat record object: {"slot":S,"src":U,"dst":V}
// or {"slot":S,"rate":R}. Keys may come in any order; unknown keys are
// errors (a trace schema typo must not silently drop a field).
func parseTraceJSON(line []byte) (traceRecord, TraceForm, error) {
	rec := traceRecord{src: -1, dst: -1, rate: -1}
	var hasSlot, hasSrc, hasDst, hasRate bool
	i := 1 // past '{'
	skipWS := func() {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
	}
	skipWS()
	if i < len(line) && line[i] == '}' {
		return traceRecord{}, 0, fmt.Errorf("empty record object")
	}
	for {
		skipWS()
		if i >= len(line) || line[i] != '"' {
			return traceRecord{}, 0, fmt.Errorf("malformed record object (expected key at byte %d)", i)
		}
		i++
		keyStart := i
		for i < len(line) && line[i] != '"' {
			i++
		}
		if i >= len(line) {
			return traceRecord{}, 0, fmt.Errorf("unterminated key")
		}
		key := line[keyStart:i]
		i++
		skipWS()
		if i >= len(line) || line[i] != ':' {
			return traceRecord{}, 0, fmt.Errorf("missing ':' after %q", key)
		}
		i++
		skipWS()
		valStart := i
		for i < len(line) && line[i] != ',' && line[i] != '}' && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		val := line[valStart:i]
		switch {
		case bytes.Equal(key, []byte("slot")):
			v, ok := parseTraceInt(val)
			if !ok || v < 0 {
				return traceRecord{}, 0, fmt.Errorf("bad slot %q", val)
			}
			rec.slot, hasSlot = v, true
		case bytes.Equal(key, []byte("src")):
			v, ok := parseTraceInt(val)
			if !ok || v < 0 {
				return traceRecord{}, 0, fmt.Errorf("bad src %q", val)
			}
			rec.src, hasSrc = v, true
		case bytes.Equal(key, []byte("dst")):
			v, ok := parseTraceInt(val)
			if !ok || v < 0 {
				return traceRecord{}, 0, fmt.Errorf("bad dst %q", val)
			}
			rec.dst, hasDst = v, true
		case bytes.Equal(key, []byte("rate")):
			v, ok := parseTraceFloat(val)
			if !ok || v < 0 || v > 1 {
				return traceRecord{}, 0, fmt.Errorf("bad rate %q (want a probability in [0,1])", val)
			}
			rec.rate, hasRate = v, true
		default:
			return traceRecord{}, 0, fmt.Errorf("unknown record key %q (want slot, src, dst or rate)", key)
		}
		skipWS()
		if i < len(line) && line[i] == ',' {
			i++
			continue
		}
		break
	}
	if i >= len(line) || line[i] != '}' {
		return traceRecord{}, 0, fmt.Errorf("unterminated record object")
	}
	if tail := bytes.TrimSpace(line[i+1:]); len(tail) != 0 {
		return traceRecord{}, 0, fmt.Errorf("trailing bytes %q after record", tail)
	}
	if !hasSlot {
		return traceRecord{}, 0, fmt.Errorf("record has no slot")
	}
	switch {
	case hasSrc && hasDst && !hasRate:
		return rec, TraceEvents, nil
	case hasRate && !hasSrc && !hasDst:
		return rec, TraceRates, nil
	default:
		return traceRecord{}, 0, fmt.Errorf("record must carry src+dst or rate, not a mix")
	}
}

// parseTraceInt parses a non-negative-ish decimal integer from raw bytes
// without allocating.
func parseTraceInt(b []byte) (int, bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	v := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > (1<<62)/10 {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// parseTraceFloat parses a plain decimal ([-]ddd[.ddd]) from raw bytes
// without allocating. Both the mantissa digits and the power-of-ten
// divisor are exact in float64 for up to 15 significant digits, so the
// single division is correctly rounded — bit-identical to
// strconv.ParseFloat, which handles the rare long or exponent forms.
func parseTraceFloat(b []byte) (float64, bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	mant, digits, frac := 0, 0, 0
	seenDot := false
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
			if digits > 15 {
				return parseTraceFloatSlow(b)
			}
			mant = mant*10 + int(c-'0')
			if seenDot {
				frac++
			}
		case c == '.' && !seenDot:
			seenDot = true
		default:
			return parseTraceFloatSlow(b) // exponents and exotica
		}
	}
	if digits == 0 {
		return 0, false
	}
	v := float64(mant)
	if frac > 0 {
		div := 1.0
		for j := 0; j < frac; j++ {
			div *= 10
		}
		v /= div
	}
	if neg {
		v = -v
	}
	return v, true
}

// parseTraceFloatSlow is the strconv fallback (allocates one string; only
// reached for forms the fast path declines).
func parseTraceFloatSlow(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// Trace replays a scanned trace file as a sim.Traffic generator. Event
// records inject (src mod n) -> (dst mod n) at their slot (self-sends
// after the wrap are dropped); rate records drive the uniform Bernoulli
// sampler at the recorded rate, scaled by Scale, from their slot until
// the next record. The file is read incrementally — one pending record
// plus a fixed line buffer — so replay memory is O(longest line)
// regardless of trace size, and the per-slot Generate stays
// allocation-free in steady state.
//
// Trace is stateful (a streaming cursor): use one value per engine, as
// with Bursty. Build it through Spec.New (after NewTraceSpec) so the file
// has been validated; Generate panics if the file turns unreadable or
// grows records a scan would reject — an environment error, since the
// content fingerprint taken at spec time no longer describes the file.
type Trace struct {
	Path string
	Form TraceForm
	// Scale multiplies recorded rates (TraceRates only); <= 0 means 1, so
	// a zero value replays the trace as recorded.
	Scale float64

	f           *os.File
	sc          *bufio.Scanner
	opened      bool
	lineNo      int
	first       bool
	pending     traceRecord
	havePending bool
	rate        float64
}

// Generate implements sim.Traffic.
func (t *Trace) Generate(buf []sim.Injection, slot, n int, rng *rand.Rand) []sim.Injection {
	if !t.opened {
		t.open()
	}
	if t.Form == TraceRates {
		for t.havePending && t.pending.slot <= slot {
			t.rate = t.pending.rate
			t.advance()
		}
		r := t.rate
		if t.Scale > 0 {
			r *= t.Scale
		}
		return sim.AppendUniform(buf, n, r, rng)
	}
	for t.havePending && t.pending.slot <= slot {
		if t.pending.slot == slot {
			src, dst := t.pending.src%n, t.pending.dst%n
			if src != dst {
				buf = append(buf, sim.Injection{Src: src, Dst: dst})
			}
		}
		t.advance()
	}
	return buf
}

// open arms the streaming cursor. The finalizer covers generators whose
// run ends before the trace does (slots < MaxSlot) — the reader closes
// itself at EOF otherwise.
func (t *Trace) open() {
	f, err := os.Open(t.Path)
	if err != nil {
		panic(fmt.Sprintf("workload: trace replay: %v (the trace must stay readable for the run)", err))
	}
	t.f = f
	t.sc = bufio.NewScanner(f)
	t.sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	t.opened = true
	t.first = true
	t.havePending = false
	t.rate = 0
	t.lineNo = 0
	runtime.SetFinalizer(t, func(tr *Trace) { tr.stop() })
	t.advance()
}

// stop releases the file handle; the cursor stays logically at EOF.
func (t *Trace) stop() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
		t.sc = nil
		runtime.SetFinalizer(t, nil)
	}
}

// advance reads the next data record into pending, closing the file at
// EOF. Records that a ScanTrace would reject panic: the file no longer
// matches the fingerprint its spec was built from.
func (t *Trace) advance() {
	for t.sc != nil && t.sc.Scan() {
		t.lineNo++
		rec, form, skip, err := parseTraceLine(t.sc.Bytes(), t.first)
		if err != nil {
			panic(fmt.Sprintf("workload: trace %s:%d: %v (edited since it was scanned?)", t.Path, t.lineNo, err))
		}
		if skip {
			continue
		}
		t.first = false
		if form != t.Form {
			panic(fmt.Sprintf("workload: trace %s:%d: %s record in a %s trace (edited since it was scanned?)",
				t.Path, t.lineNo, form, t.Form))
		}
		if t.havePending && rec.slot < t.pending.slot {
			panic(fmt.Sprintf("workload: trace %s:%d: slot %d after slot %d (edited since it was scanned?)",
				t.Path, t.lineNo, rec.slot, t.pending.slot))
		}
		t.pending = rec
		t.havePending = true
		return
	}
	if t.sc != nil {
		if err := t.sc.Err(); err != nil {
			panic(fmt.Sprintf("workload: trace %s: %v", t.Path, err))
		}
	}
	t.havePending = false
	t.stop()
}
