package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vidrec/internal/recommend"
)

// FuzzHTTP drives the HTTP surface with hostile input: each case sends its
// raw query to GET /recommend and GET /similar and its body to POST
// /action, in-process over a healthy embedded store. A handler may refuse
// input (4xx) but must never panic or answer 5xx — on this store no request
// fails for a reason outside the request itself. Each case gets a fresh
// system, so a failing input reproduces on its own; its read cache is
// small because the fuzzer builds thousands of systems a second.
func FuzzHTTP(f *testing.F) {
	for _, seed := range []struct{ query, body string }{
		{"user=u1&n=5", "1457308800000\tu1\tc\tclick\t0\t0\n"},
		{"user=visitor&video=a&n=17179869184", ""},
		{"user=u1&video=a&n=9223372036854775807", "1457308800000\tu1\ta\tplaytime\t1800000\t1800000"},
		{"user=u2&n=-3", "1457308800000\tu2\tb\tplay\t-5\t0\n"},
		{"user=u2&video=b&n=ten", "# comment only\r\n\n"},
		{"user=u1&user=u2&video=a&video=b&n=1&n=2", "1457308800000\tu3\tc\tlike\t0\t0\n1457308800000\tu3\tc\tcomment\t0\t0\n"},
		{"user=u1;video=a;n=3", "1457308800000\tu1\tb\n"},
		{"user=%zz&video=%&n=%2", "garbage\n"},
		{"video=a", "x\ty\tz\tclick\t0\t0"},
		{"", "1457308800000\t\t\tplay\t0\t0"},
		{"user=u1&video=&n= 4 ", "-1\tu1\ta\tplaytime\t9223372036854775807\t1"},
	} {
		f.Add(seed.query, seed.body)
	}
	opts := recommend.DefaultOptions()
	opts.CacheCapacity = 256
	f.Fuzz(func(t *testing.T, query, body string) {
		sys, kv := testSystem(t, opts)
		mux := newMux(sys, &storeStack{kv: kv, local: kv}, nil)
		serve := func(r *http.Request) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, r)
			if rec.Code >= 500 {
				t.Fatalf("%s %s?%s: status %d: %s", r.Method, r.URL.Path, r.URL.RawQuery, rec.Code, rec.Body)
			}
		}
		for _, path := range []string{"/recommend", "/similar"} {
			r := httptest.NewRequest(http.MethodGet, path, nil)
			r.URL.RawQuery = query
			serve(r)
		}
		serve(httptest.NewRequest(http.MethodPost, "/action", strings.NewReader(body)))
	})
}
