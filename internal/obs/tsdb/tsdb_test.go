package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// table publishes rows windows of the named series, each a function of
// the window index.
func table(s *Store, rows int, names []string, f func(col, row int) float64) *Store {
	s.Publish(names, rows, f)
	return s
}

func TestPublishRangeAndLatestK(t *testing.T) {
	// Past the retained rows, so every read starts at an offset.
	n := 2*rawWindows + 12
	s := table(New(Options{}), n, []string{"util"}, func(_, row int) float64 { return float64(row) * 0.5 })
	if got := s.LastWindow(); got != n-1 {
		t.Fatalf("LastWindow = %d, want %d", got, n-1)
	}
	// Reads see the newest rawWindows windows, oldest first, each with its
	// own value.
	all := s.Range("util", 0, -1)
	if len(all) != rawWindows {
		t.Fatalf("Range full = %d samples, want %d", len(all), rawWindows)
	}
	for i, p := range all {
		if w := n - rawWindows + i; p.Window != w || p.Value != float64(w)*0.5 {
			t.Fatalf("Range full [%d] = %+v, want window %d", i, p, w)
		}
	}
	from := n - rawWindows + 2
	mid := s.Range("util", from, from+2)
	if len(mid) != 3 || mid[0].Window != from || mid[2].Window != from+2 {
		t.Fatalf("Range[%d,%d] = %+v", from, from+2, mid)
	}
	if got := s.Range("util", 0, n-rawWindows-1); got != nil {
		t.Fatalf("Range over unretained windows = %+v, want nil", got)
	}
	lk := s.LatestK("util", 3)
	if len(lk) != 3 || lk[0].Window != n-3 || lk[2].Window != n-1 {
		t.Fatalf("LatestK(3) = %+v", lk)
	}
	if got := s.LatestK("util", 2*n); len(got) != rawWindows {
		t.Fatalf("LatestK over-ask = %d samples, want %d", len(got), rawWindows)
	}
	if got := s.Range("nosuch", 0, -1); got != nil {
		t.Fatalf("Range on unknown series = %+v, want nil", got)
	}

	// A republished view replaces the old one; an empty one names no series.
	s.Publish([]string{"util"}, 0, nil)
	if s.Names() != nil || s.LastWindow() != -1 || s.Range("util", 0, -1) != nil {
		t.Fatal("an empty view still serves the old rows")
	}
}

// TestSummaries: Windows counts every window, unretained ones included,
// while min/max/last and the sparkline read the retained ones.
func TestSummaries(t *testing.T) {
	n := rawWindows + 2
	s := table(New(Options{}), n, []string{"a", "z"}, func(col, row int) float64 {
		if col == 0 {
			return float64(-row)
		}
		return float64(row)
	})
	sums := s.Summaries(2)
	if len(sums) != 2 || sums[0].Name != "a" || sums[1].Name != "z" {
		t.Fatalf("summaries order = %+v", sums)
	}
	a := sums[0]
	// Reads cover windows 2..n-1, so the values -2..-(n-1).
	lo := float64(-(n - 1))
	if a.Min != lo || a.Max != -2 || a.Last != lo || a.Windows != n {
		t.Fatalf("summary a = %+v", a)
	}
	if len(a.Spark) != 2 || a.Spark[0] != lo+1 || a.Spark[1] != lo {
		t.Fatalf("spark = %v", a.Spark)
	}
	if z := sums[1]; z.Min != 2 || z.Max != float64(n-1) || z.Windows != n {
		t.Fatalf("summary z = %+v", z)
	}
	if got := New(Options{}).Summaries(2); got == nil || len(got) != 0 {
		t.Fatalf("empty store summaries = %#v, want an empty list", got)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Publish([]string{"a"}, 1, func(int, int) float64 { return 1 })
	if s.Names() != nil || s.LastWindow() != -1 {
		t.Fatal("nil store leaked state")
	}
	if s.Range("a", 0, -1) != nil || s.LatestK("a", 3) != nil || s.Summaries(4) != nil {
		t.Fatal("nil store returned data")
	}
	if _, err := s.Query([]string{"a"}, 0, -1); err == nil {
		t.Fatal("nil store Query should error")
	}
	// The handler still serves the empty catalog.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/query", nil))
	if rr.Code != 200 {
		t.Fatalf("nil handler status %d", rr.Code)
	}
}

func TestHandler(t *testing.T) {
	s := New(Options{})
	get := func(url string) (int, []byte) {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		return rr.Code, rr.Body.Bytes()
	}

	// Before the first row no series exists.
	for _, url := range []string{"/v1/query?series=util", "/v1/query?series=util&k=3"} {
		if code, _ := get(url); code != 404 {
			t.Fatalf("%s before the first row: status %d, want 404", url, code)
		}
	}

	const f = 8
	table(s, 3*f, []string{"util", "watts"}, func(col, row int) float64 {
		if col == 0 {
			return float64(row)
		}
		return 100
	})

	// Catalog.
	code, body := get("/v1/query")
	if code != 200 {
		t.Fatalf("catalog status %d: %s", code, body)
	}
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Schema != Schema || len(list.Series) != 2 || list.LastWindow != 3*f-1 {
		t.Fatalf("catalog = %+v", list)
	}

	// Raw range.
	code, body = get("/v1/query?series=util,watts&from=2&to=5")
	if code != 200 {
		t.Fatalf("range status %d: %s", code, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Series) != 2 || len(qr.Series[0].Points) != 4 || qr.Series[0].Points[0].Window != 2 {
		t.Fatalf("range = %+v", qr)
	}

	// Latest-k.
	code, body = get("/v1/query?series=util&k=3")
	if code != 200 {
		t.Fatalf("k status %d: %s", code, body)
	}
	qr = QueryResponse{}
	json.Unmarshal(body, &qr)
	if pts := qr.Series[0].Points; len(pts) != 3 || pts[2].Window != 3*f-1 {
		t.Fatalf("latest-k = %+v", qr.Series[0].Points)
	}

	// Errors.
	if code, _ := get("/v1/query?series=nosuch"); code != 404 {
		t.Fatalf("unknown series status %d, want 404", code)
	}
	if code, _ := get("/v1/query?series=util&from=abc"); code != 400 {
		t.Fatalf("bad from status %d, want 400", code)
	}
	// The store keeps raw samples only: a client of the old downsampled
	// tiers is refused by name rather than handed raw points.
	for _, url := range []string{"/v1/query?series=util&step=8", "/v1/query?series=util&step=1", "/v1/query?step=8"} {
		if code, body := get(url); code != 400 || !strings.Contains(string(body), "step") {
			t.Fatalf("%s: status %d (%s), want 400 naming step", url, code, body)
		}
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", nil))
	if rr.Code != 405 {
		t.Fatalf("POST status %d, want 405", rr.Code)
	}
}

func TestHandlerDeterministicBytes(t *testing.T) {
	build := func() *Store {
		return table(New(Options{}), 40, []string{"util", "watts"}, func(col, row int) float64 {
			if col == 0 {
				return float64(row%7) * 0.25
			}
			return 100 + float64(row%3)
		})
	}
	req := func(s *Store) []byte {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/query?series=util,watts&from=0&to=39", nil))
		return rr.Body.Bytes()
	}
	a, b := req(build()), req(build())
	if !bytes.Equal(a, b) {
		t.Fatalf("query responses differ across identical builds:\n%s\n%s", a, b)
	}
}

func BenchmarkSummaries(b *testing.B) {
	names := make([]string, 13)
	for i := range names {
		names[i] = fmt.Sprintf("series_%02d", i)
	}
	s := table(New(Options{}), 2*rawWindows, names, func(col, row int) float64 { return float64(col * row) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Summaries(32)
	}
}
