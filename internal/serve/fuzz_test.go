package serve

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeRequest drives the request decoder with arbitrary bytes,
// interpreted both as a JSON body and as a raw query string — the two
// wire surfaces a hostile client controls. The decoder must never panic,
// and anything it accepts must satisfy the documented invariants (the
// same contract units.ParseByteSize holds for sizes: no NaN, no Inf, no
// negatives, bounded magnitude). Wherever a direct parser accepts the
// input, it must agree with the path it shortcuts.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"platform":"henri","n":4,"mcomp":0,"mcomm":1}`))
	f.Add([]byte(`{"platform":"dahu","n":64,"kernel":"triad"}`))
	f.Add([]byte(`{"platform":"pyxis","n":1e309}`))
	f.Add([]byte(`{"platform":"henri","n":2.5}`))
	f.Add([]byte(`{"platform":"henri","n":-1}`))
	f.Add([]byte(`{"platform":"henri","n":1,"extra":true}`))
	f.Add([]byte(`{"platform":"henri","n":1}{"trailing":1}`))
	f.Add([]byte("platform=henri&n=12&mcomp=0&mcomm=1"))
	f.Add([]byte("platform=henri&n=NaN"))
	f.Add([]byte("platform=henri&n=+Inf&kernel=copy"))
	f.Add([]byte("platform=occigen&n=0x1p4"))
	f.Add([]byte("n=9"))
	f.Add([]byte(""))
	f.Add([]byte("\xff\xfe{"))
	f.Add([]byte(" {\"kernel\" : \"copy\", \"n\":40 ,\"platform\":\"dahu\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, "json", func() (Request, error) {
			return DecodeRequest(data, nil)
		})
		if q, err := url.ParseQuery(string(data)); err == nil {
			checkDecoded(t, "query", func() (Request, error) {
				return DecodeRequest(nil, q)
			})
		}
		checkDirectParsers(t, data)
	})
}

// checkDirectParsers checks that scanBody's decode agrees with
// encoding/json's, and scanQuery's values with url.ParseQuery and Get's,
// on every input they accept.
func checkDirectParsers(t *testing.T, data []byte) {
	t.Helper()
	if _, ok := scanBody(data); ok {
		q, err := decodeBody(data)
		wq, werr := decodeJSONBody(data)
		if q != wq || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("body %q: direct decode gives %+v, %v; encoding/json gives %+v, %v", data, q, err, wq, werr)
		}
	}
	raw := string(data)
	if f, ok := scanQuery(raw); ok {
		query, _ := url.ParseQuery(raw)
		for i, key := range fieldKeys {
			if f[i] != query.Get(key) {
				t.Errorf("query %q: direct %s = %q, ParseQuery gives %q", raw, key, f[i], query.Get(key))
			}
		}
	}
}

// TestFallbackCorpus checks that the corpus entries named fallback-*
// reach the path a direct parser shortcuts: the body ones encoding/json,
// the query ones url.ParseQuery.
func TestFallbackCorpus(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzDecodeRequest/fallback-*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fallback corpus entries (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(data), "[]byte(")
		in, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var ok bool
		if strings.HasPrefix(filepath.Base(path), "fallback-query-") {
			_, ok = scanQuery(in)
		} else {
			_, ok = scanBody([]byte(in))
		}
		if ok {
			t.Errorf("%s: %q does not reach the fallback", filepath.Base(path), in)
		}
	}
}

// checkDecoded asserts the accepted-request invariants.
func checkDecoded(t *testing.T, mode string, decode func() (Request, error)) {
	t.Helper()
	q, err := decode()
	if err != nil {
		return // rejection is always fine; panics are what fuzzing hunts
	}
	if strings.TrimSpace(q.Platform) == "" || q.Platform != strings.TrimSpace(q.Platform) {
		t.Errorf("%s: accepted platform %q", mode, q.Platform)
	}
	if q.N < 1 || q.N > MaxN {
		t.Errorf("%s: accepted n=%d outside [1, %d]", mode, q.N, MaxN)
	}
	if q.MComp < 0 || q.MComp > MaxNode || q.MComm < 0 || q.MComm > MaxNode {
		t.Errorf("%s: accepted node ids (%d, %d) outside [0, %d]", mode, q.MComp, q.MComm, MaxNode)
	}
	if _, err := KernelByName(q.Kernel); err != nil {
		t.Errorf("%s: accepted unknown kernel %q", mode, q.Kernel)
	}
}
