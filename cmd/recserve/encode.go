package main

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"vidrec/internal/recommend"
	"vidrec/internal/topn"
)

// The hot endpoints' edge: /recommend and /similar read their parameters in
// one pass over the raw query, and /recommend, /similar and /action write
// their bodies with append-style encoders over the typed values into a pooled
// buffer. The bytes are exactly what encoding/json's Encoder writes for the
// maps and slices these handlers used to build — keys sorted, HTML escaping,
// the ES6 float format, the trailing newline — without reflection, maps or
// per-response allocation.

// jsonContentType is the Content-Type header value every JSON response
// shares; assigning it avoids building the one-element slice per response.
var jsonContentType = []string{"application/json"}

// maxPooledBody bounds the response buffers the pool keeps: an outsized
// response (a huge n) is served, then its buffer is left to the collector.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// respond encodes v with enc into a pooled buffer and sends it as the JSON
// response. An encode error — a non-finite score — answers 500 with its
// message instead of a 200 with an empty body.
func respond[T any](w http.ResponseWriter, v T, enc func([]byte, T) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, err := enc((*bp)[:0], v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if cap(body) <= maxPooledBody {
		*bp = body
	}
	writeBody(w, body)
}

// writeBody sends body as a JSON response.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(body) // best-effort: a vanished client needs no reply
}

// appendRecommend appends the /recommend body for res.
func appendRecommend(b []byte, res *recommend.Result) ([]byte, error) {
	b = append(b, '{')
	if res.Arms != nil {
		b = append(b, `"arms":[`...)
		for i, a := range res.Arms {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, a.String())
		}
		b = append(b, "],"...)
	}
	b = append(b, `"candidates":`...)
	b = strconv.AppendInt(b, int64(res.Candidates), 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, res.Degraded)
	b = append(b, `,"explored":`...)
	b = strconv.AppendBool(b, res.Explored)
	b = append(b, `,"hot_merged":`...)
	b = strconv.AppendInt(b, int64(res.HotMerged), 10)
	b = append(b, `,"latency_us":`...)
	b = strconv.AppendInt(b, res.Latency.Microseconds(), 10)
	b = append(b, `,"seeds":`...)
	b = strconv.AppendInt(b, int64(res.Seeds), 10)
	b = append(b, `,"videos":`...)
	b, err := appendEntries(b, res.Videos)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

// appendSimilar appends the /similar body for entries.
func appendSimilar(b []byte, entries []topn.Entry) ([]byte, error) {
	b, err := appendEntries(b, entries)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// appendIngested appends the /action body for n ingested actions.
func appendIngested(b []byte, n int) ([]byte, error) {
	b = append(b, `{"ingested":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "}\n"...), nil
}

// appendEntries appends a ranked list as encoding/json renders a
// []topn.Entry: null when nil, otherwise {"ID":…,"Score":…} objects.
func appendEntries(b []byte, entries []topn.Entry) ([]byte, error) {
	if entries == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ID":`...)
		b = appendString(b, e.ID)
		b = append(b, `,"Score":`...)
		var err error
		if b, err = appendFloat(b, e.Score); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendFloat appends f in encoding/json's float64 format: the shortest
// representation, in e-notation below 1e-6 and from 1e21 up with a
// two-digit negative exponent shortened (e-07 → e-7). NaN and ±Inf are not
// JSON; they are refused with encoding/json's error text.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as an encoding/json string with HTML escaping (the
// Encoder default): quotes, backslashes and control bytes escaped, <, > and
// & as \u003c-style escapes, invalid UTF-8 as \ufffd, and U+2028 / U+2029
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// recQuery holds the query parameters /recommend and /similar read.
type recQuery struct{ user, video, n string }

// parseRecQuery reads user, video and n from a raw query string in one pass,
// with exactly the semantics of url.ParseQuery followed by Values.Get: pairs
// split on '&', a pair holding ';' or a malformed %-escape is dropped, '+'
// decodes to a space, and the first surviving value of a key wins. Plain
// values are substrings of raw; only escaped ones allocate.
func parseRecQuery(raw string) recQuery {
	var q recQuery
	var seen [3]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		var dst *string
		var i int
		switch k {
		case "user":
			dst, i = &q.user, 0
		case "video":
			dst, i = &q.video, 1
		case "n":
			dst, i = &q.n, 2
		default:
			continue
		}
		if seen[i] {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		*dst, seen[i] = v, true
	}
	return q
}

// queryInt parses a positive integer parameter value, falling back to def
// when it is empty, malformed or not positive.
func queryInt(v string, def int) int {
	v = strings.TrimSpace(v)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return def
	}
	return n
}
