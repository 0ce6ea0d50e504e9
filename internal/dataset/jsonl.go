package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"sync"
	"time"
)

// The JSONL ingest path (DESIGN §5, "JSONL ingest"). DecodeJSONL reads
// through a jsonlScanner: one pooled buffer, a hand-written scan of the
// attackJSON schema for the records WriteJSONL and feeds like it produce,
// and encoding/json — the semantic reference — for every other input.

const (
	// jsonlBufSize is the pooled read buffer. A record is scanned in
	// place, so the buffer doubles while one does not fit, up to
	// jsonlMaxRecord; a longer one streams through encoding/json instead,
	// which keeps a value without end from being buffered twice. Scanners
	// that grew are not pooled.
	jsonlBufSize   = 64 << 10
	jsonlMaxRecord = 4 << 20

	// internMax bounds the table that shares the feed's low-cardinality
	// strings (family, cc, city, org) between records; it starts over when
	// full, and longer strings are not shared.
	internMax    = 4096
	internMaxLen = 64
)

// One bit per attackJSON key, to require each exactly once.
const (
	keyID = 1 << iota
	keyBotnetID
	keyFamily
	keyCategory
	keyTargetIP
	keyTimestamp
	keyEndTime
	keyBotIPs
	keyASN
	keyCC
	keyCity
	keyOrg
	keyLatitude
	keyLongitude
	keyAll = 1<<iota - 1
)

type jsonlScanner struct {
	src io.Reader
	err error // sticky result of the last src.Read, io.EOF included

	buf      []byte
	pos, end int // unread bytes are buf[pos:end]

	ips    []netip.Addr // scratch for the record being scanned
	intern map[string]string
}

// The pool keeps the read buffers and nothing else: the scratch and the
// string table are per call. Keeping them too bought 3 % of ingest rate
// and cost about 0.5 MB of peak RSS on the live_single benchmark.
var jsonlScanners = sync.Pool{
	New: func() any { return &jsonlScanner{buf: make([]byte, jsonlBufSize)} },
}

func acquireJSONLScanner(r io.Reader) *jsonlScanner {
	s := jsonlScanners.Get().(*jsonlScanner)
	s.src, s.err, s.pos, s.end = r, nil, 0, 0
	s.intern = make(map[string]string)
	return s
}

func (s *jsonlScanner) release() {
	s.src, s.err, s.ips, s.intern = nil, nil, nil, nil
	if len(s.buf) == jsonlBufSize {
		jsonlScanners.Put(s)
	}
}

// next returns record n (1-based) of the stream, or io.EOF after the last.
func (s *jsonlScanner) next(n int) (*Attack, error) {
	tried := 0 // bytes the scans of this record that ran out of input saw
	for {
		for s.pos < s.end && jsonSpace[s.buf[s.pos]] {
			s.pos++
		}
		if s.pos == s.end && s.err == nil {
			s.fill()
			continue
		}
		// A record cut short by the buffer is scanned again from its
		// brace after a read, as long as the earlier scans together saw
		// no more bytes than there are now: the scans that run out then
		// add up to less than twice the record's length however the input
		// trickles in. Past that, json.Decoder, which resumes where it
		// stopped, takes the record.
		avail := s.end - s.pos
		if avail == 0 || s.buf[s.pos] != '{' || avail < tried {
			return s.decodeReference(n)
		}
		a, used, res := s.scanRecord(s.buf[s.pos:s.end])
		switch {
		case res == scanOK:
			s.pos += used
			return a, nil
		case res == scanMore && s.err == nil && avail < jsonlMaxRecord:
			tried += avail
			s.fill()
		default:
			return s.decodeReference(n)
		}
	}
}

// fill moves the unread bytes to the front of the buffer, doubling it when
// they fill it, and reads once from src.
func (s *jsonlScanner) fill() {
	if s.pos > 0 {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	n, err := s.src.Read(s.buf[s.end:])
	s.end += n
	s.err = err
}

// Read serves the unread bytes and then src to the reference decoder.
func (s *jsonlScanner) Read(p []byte) (int, error) {
	if s.pos == s.end {
		if s.err != nil {
			return 0, s.err
		}
		s.fill()
	}
	n := copy(p, s.buf[s.pos:s.end])
	s.pos += n
	return n, nil
}

// decodeReference decodes exactly one value from the current stream
// position the way DecodeJSONL always used to — encoding/json into
// attackJSON, then attackJSON.attack — and hands the bytes json.Decoder
// read ahead back to the scanner. Every DecodeJSONL decode error is built
// here.
func (s *jsonlScanner) decodeReference(n int) (*Attack, error) {
	dec := json.NewDecoder(s)
	var rec attackJSON
	if err := dec.Decode(&rec); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, fmt.Errorf("dataset: decode jsonl record %d: %w", n, err)
	}
	tail, _ := io.ReadAll(dec.Buffered()) // in memory: cannot fail
	s.unread(tail)
	a, err := rec.attack()
	if err != nil {
		return nil, fmt.Errorf("dataset: jsonl record %d: %w", n, err)
	}
	return a, nil
}

// unread puts back the tail of what Read served. Read refills only an
// empty buffer, so buf[:pos] is the newest part of what it served: a tail
// no longer than that is still in place.
func (s *jsonlScanner) unread(tail []byte) {
	n := len(tail)
	if n <= s.pos {
		s.pos -= n
		return
	}
	rest := s.buf[s.pos:s.end]
	buf := s.buf
	if n+len(rest) > len(buf) {
		buf = make([]byte, n+len(rest))
	}
	copy(buf[n:], rest)
	copy(buf, tail)
	s.buf, s.pos, s.end = buf, 0, n+len(rest)
}

var jsonSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// plainChar marks the bytes a JSON string carries verbatim and that are
// their own UTF-8: printable ASCII but for the quote and the backslash.
var plainChar = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func skipSpace(b []byte, i int) int {
	for i < len(b) && jsonSpace[b[i]] {
		i++
	}
	return i
}

// What scanRecord made of the bytes it was given.
type scanResult uint8

const (
	scanOK   scanResult = iota // a record, decoded as the reference would
	scanMore                   // the bytes end inside the record: read on
	scanSlow                   // outside the fast grammar: the reference decides
)

// moreOrSlow tells why a value scanner stopped at i without a value: out
// of bytes, or at a byte the fast grammar has no place for.
func moreOrSlow(b []byte, i int) scanResult {
	if i >= len(b) {
		return scanMore
	}
	return scanSlow
}

// scanRecord scans one attackJSON object at the start of b. It accepts
// only what it decodes exactly as encoding/json and attackJSON.attack
// would: the fourteen keys once each in any order, unescaped ASCII
// strings, integers without fraction or exponent, no null. It reports the
// bytes used; or scanMore when b ends before the record does; or scanSlow
// for the caller to decode the value by the reference instead — which is
// also how every malformed record gets its error.
func (s *jsonlScanner) scanRecord(b []byte) (a *Attack, used int, res scanResult) {
	const maxKey = len(`"botnet_ips"`)
	var (
		rec  Attack
		seen uint
		i    = 1 // past the '{' the caller saw
	)
	s.ips = s.ips[:0]
	for {
		i = skipSpace(b, i)
		if i >= len(b) || b[i] != '"' {
			return nil, 0, moreOrSlow(b, i)
		}
		i++
		k := bytes.IndexByte(b[i:min(i+maxKey, len(b))], '"')
		if k < 0 {
			// No known key is this long; a shorter window was cut by the
			// end of b.
			return nil, 0, moreOrSlow(b, i+maxKey-1)
		}
		key := b[i : i+k]
		i = skipSpace(b, i+k+1)
		if i >= len(b) || b[i] != ':' {
			return nil, 0, moreOrSlow(b, i)
		}
		i = skipSpace(b, i+1)

		var (
			bit uint
			u   uint64
			str []byte
			ok  bool
		)
		switch string(key) {
		case "ddos_id":
			bit = keyID
			u, i, ok = scanUint(b, i)
			rec.ID = DDoSID(u)
		case "botnet_id":
			bit = keyBotnetID
			u, i, ok = scanUint(b, i)
			if u > math.MaxUint32 {
				return nil, 0, scanSlow
			}
			rec.BotnetID = BotnetID(u)
		case "asn":
			bit = keyASN
			neg := i < len(b) && b[i] == '-'
			if neg {
				i++
			}
			u, i, ok = scanUint(b, i)
			if rec.TargetASN = int(u); neg {
				rec.TargetASN = -rec.TargetASN
			}
		case "latitude":
			bit = keyLatitude
			rec.TargetLat, i, ok = scanFloat(b, i)
		case "longitude":
			bit = keyLongitude
			rec.TargetLon, i, ok = scanFloat(b, i)
		case "family":
			bit = keyFamily
			str, i, ok = scanPlainString(b, i)
			rec.Family = Family(s.internString(str))
		case "cc":
			bit = keyCC
			str, i, ok = scanPlainString(b, i)
			rec.TargetCountry = s.internString(str)
		case "city":
			bit = keyCity
			str, i, ok = scanPlainString(b, i)
			rec.TargetCity = s.internString(str)
		case "org":
			bit = keyOrg
			str, i, ok = scanPlainString(b, i)
			rec.TargetOrg = s.internString(str)
		case "category":
			bit = keyCategory
			str, i, ok = scanPlainString(b, i)
			if rec.Category = categoryOf(str); ok && rec.Category == 0 {
				return nil, 0, scanSlow
			}
		case "target_ip":
			bit = keyTargetIP
			rec.TargetIP, i, ok = scanAddr(b, i)
		case "timestamp":
			bit = keyTimestamp
			rec.Start, i, ok = scanTime(b, i)
		case "end_time":
			bit = keyEndTime
			rec.End, i, ok = scanTime(b, i)
		case "botnet_ips":
			bit = keyBotIPs
			i, ok = s.scanAddrs(b, i)
		}
		if bit == 0 || seen&bit != 0 {
			return nil, 0, scanSlow
		}
		if !ok {
			return nil, 0, moreOrSlow(b, i)
		}
		seen |= bit

		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, 0, scanMore
		}
		if b[i] == ',' {
			i++
			continue
		}
		if b[i] != '}' || seen != keyAll {
			return nil, 0, scanSlow
		}
		break
	}
	// One allocation each for the record and its sources, the latter at
	// its exact length. Neither is pooled: the stream analyzer keeps
	// records that sit in an open collaboration window.
	rec.BotIPs = make([]netip.Addr, len(s.ips))
	copy(rec.BotIPs, s.ips)
	a = new(Attack)
	*a = rec
	return a, i + 1, scanOK
}

// The value scanners below scan one value at b[i:] and return the index
// after it. Without a value (ok=false) that index tells moreOrSlow why:
// len(b) when b ended where the value could still go on — a number that
// touches the end of b is such a value — and otherwise a byte inside b
// that the fast grammar has no place for.

// scanUint scans a JSON integer without sign, fraction or exponent. At
// most 18 digits, so that the value fits an int as well as a uint64.
func scanUint(b []byte, i int) (v uint64, next int, ok bool) {
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	if n := i - start; n > 18 || (n > 1 && b[start] == '0') {
		return 0, start, false
	}
	if i == start || i == len(b) {
		return 0, i, false
	}
	return v, i, true
}

// scanFloat checks the JSON number grammar, which is narrower than what
// strconv accepts, and converts with strconv as encoding/json does.
func scanFloat(b []byte, i int) (v float64, next int, ok bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	from := i
	if i = skipDigits(b, i); i > from+1 && b[from] == '0' {
		return 0, from, false
	} else if i == from {
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		from = i + 1
		if i = skipDigits(b, from); i == from {
			return 0, i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from = i
		if i = skipDigits(b, from); i == from {
			return 0, i, false
		}
	}
	if i == len(b) {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, start, false
	}
	return v, i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// scanPlainString scans a string of plainChar bytes and returns its
// content, aliasing b.
func scanPlainString(b []byte, i int) (content []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	i++
	start := i
	for i < len(b) && plainChar[b[i]] {
		i++
	}
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	return b[start:i], i + 1, true
}

// internString returns b as a string, shared with an earlier equal one
// while the table holds it.
func (s *jsonlScanner) internString(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	if v, ok := s.intern[string(b)]; ok {
		return v
	}
	if len(s.intern) == internMax {
		clear(s.intern)
	}
	v := string(b)
	s.intern[v] = v
	return v
}

// categoryOf is ParseCategory on bytes; 0 for an unknown label.
func categoryOf(b []byte) Category {
	for _, c := range Categories {
		if c.String() == string(b) {
			return c
		}
	}
	return 0
}

// scanAddr scans a string holding an IP address: dotted-quad IPv4 in
// place, any other form through netip.ParseAddr.
func scanAddr(b []byte, i int) (addr netip.Addr, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return netip.Addr{}, i, false
	}
	var oct [4]byte
	j := i + 1
	for f := 0; f < 4; f++ {
		// One to three digits, no leading zero, at most 255.
		start, v := j, uint(0)
		for j < len(b) && j < start+3 && b[j]-'0' <= 9 {
			v = v*10 + uint(b[j]-'0')
			j++
		}
		sep := byte('.')
		if f == 3 {
			sep = '"'
		}
		if j == start || v > 255 || (j > start+1 && b[start] == '0') || j >= len(b) || b[j] != sep {
			return scanAddrString(b, i)
		}
		oct[f] = byte(v)
		j++
	}
	return netip.AddrFrom4(oct), j, true
}

func scanAddrString(b []byte, i int) (addr netip.Addr, next int, ok bool) {
	str, next, ok := scanPlainString(b, i)
	if !ok {
		return netip.Addr{}, next, false
	}
	addr, err := netip.ParseAddr(string(str))
	if err != nil {
		return netip.Addr{}, i, false
	}
	return addr, next, true
}

// scanAddrs scans an array of address strings into s.ips.
func (s *jsonlScanner) scanAddrs(b []byte, i int) (next int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return i, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		var addr netip.Addr
		addr, i, ok = scanAddr(b, i)
		if !ok {
			return i, false
		}
		s.ips = append(s.ips, addr)
		i = skipSpace(b, i)
		if i >= len(b) {
			return i, false
		}
		if b[i] == ']' {
			return i + 1, true
		}
		if b[i] != ',' {
			return i, false
		}
		i = skipSpace(b, i+1)
	}
}

// scanTime scans a string holding an RFC 3339 time: the fixed-width UTC
// form YYYY-MM-DDTHH:MM:SSZ in place, any other through parseWireTime.
func scanTime(b []byte, i int) (t time.Time, next int, ok bool) {
	const width = len(`"2006-01-02T15:04:05Z"`)
	if i+width <= len(b) {
		if t, ok := fixedTime(b[i : i+width]); ok {
			return t, i + width, true
		}
	}
	str, next, ok := scanPlainString(b, i)
	if !ok {
		return time.Time{}, next, false
	}
	t, err := parseWireTime(string(str))
	if err != nil {
		return time.Time{}, i, false
	}
	return t, next, true
}

// fixedTime converts q, a quoted YYYY-MM-DDTHH:MM:SSZ with every field in
// range, as time.Parse(time.RFC3339, …) does.
func fixedTime(q []byte) (time.Time, bool) {
	if q[0] != '"' || q[5] != '-' || q[8] != '-' || q[11] != 'T' ||
		q[14] != ':' || q[17] != ':' || q[20] != 'Z' || q[21] != '"' {
		return time.Time{}, false
	}
	for _, k := range [...]int{1, 2, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19} {
		if q[k]-'0' > 9 {
			return time.Time{}, false
		}
	}
	year, month, day := twoDigits(q, 1)*100+twoDigits(q, 3), twoDigits(q, 6), twoDigits(q, 9)
	hour, min, sec := twoDigits(q, 12), twoDigits(q, 15), twoDigits(q, 18)
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC), true
}

func twoDigits(q []byte, k int) int { return int(q[k]-'0')*10 + int(q[k+1]-'0') }

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// appendAttackJSON appends a's attackJSON line, newline included.
func appendAttackJSON(b []byte, a *Attack) ([]byte, error) {
	b = append(b, `{"ddos_id":`...)
	b = strconv.AppendUint(b, uint64(a.ID), 10)
	b = append(b, `,"botnet_id":`...)
	b = strconv.AppendUint(b, uint64(a.BotnetID), 10)
	b = append(b, `,"family":`...)
	b = appendJSONString(b, string(a.Family))
	b = append(b, `,"category":`...)
	b = appendJSONString(b, a.Category.String())
	b = append(b, `,"target_ip":`...)
	b = appendJSONAddr(b, a.TargetIP)
	b = append(b, `,"timestamp":"`...)
	b = a.Start.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, `","end_time":"`...)
	b = a.End.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, `","botnet_ips":[`...)
	for i, ip := range a.BotIPs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONAddr(b, ip)
	}
	b = append(b, `],"asn":`...)
	b = strconv.AppendInt(b, int64(a.TargetASN), 10)
	b = append(b, `,"cc":`...)
	b = appendJSONString(b, a.TargetCountry)
	b = append(b, `,"city":`...)
	b = appendJSONString(b, a.TargetCity)
	b = append(b, `,"org":`...)
	b = appendJSONString(b, a.TargetOrg)
	b = append(b, `,"latitude":`...)
	b, err := appendJSONFloat(b, a.TargetLat)
	if err != nil {
		return b, err
	}
	b = append(b, `,"longitude":`...)
	if b, err = appendJSONFloat(b, a.TargetLon); err != nil {
		return b, err
	}
	return append(b, '}', '\n'), nil
}

// appendJSONString quotes s. A string holding anything encoding/json
// escapes by default (quote, backslash, control and non-ASCII bytes, and
// the HTML trio) is left to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainChar[c] || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // cannot fail for a string
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONAddr quotes ip.String(). Only an IPv6 zone can hold bytes
// that need escaping.
func appendJSONAddr(b []byte, ip netip.Addr) []byte {
	if !ip.IsValid() || ip.Zone() != "" {
		return appendJSONString(b, ip.String())
	}
	b = append(b, '"')
	b = ip.AppendTo(b)
	return append(b, '"')
}

// appendJSONFloat formats f as encoding/json does: shortest round-trip
// digits, exponent form outside [1e-6, 1e21), an error for NaN and ±Inf.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		// e-07 → e-7, as encoding/json trims a two-digit exponent.
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
