package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

func TestAppendRangeAndLatestK(t *testing.T) {
	s := New(Options{RawWindows: 8, AggBuckets: 4, Factors: []int{4}})
	for w := 0; w < 20; w++ {
		s.Append("util", ClassVirtual, w, float64(w)*0.5)
	}
	if got := s.LastWindow(); got != 19 {
		t.Fatalf("LastWindow = %d, want 19", got)
	}
	// Raw ring keeps the newest 8 windows: 12..19.
	all := s.Range("util", 0, -1)
	if len(all) != 8 || all[0].Window != 12 || all[7].Window != 19 {
		t.Fatalf("Range full = %+v", all)
	}
	mid := s.Range("util", 14, 16)
	if len(mid) != 3 || mid[0].Window != 14 || mid[2].Window != 16 {
		t.Fatalf("Range[14,16] = %+v", mid)
	}
	lk := s.LatestK("util", 3)
	if len(lk) != 3 || lk[0].Window != 17 || lk[2].Window != 19 {
		t.Fatalf("LatestK(3) = %+v", lk)
	}
	if got := s.LatestK("util", 100); len(got) != 8 {
		t.Fatalf("LatestK over-ask = %d samples, want 8", len(got))
	}
	if got := s.Range("nosuch", 0, -1); got != nil {
		t.Fatalf("Range on unknown series = %+v, want nil", got)
	}
}

func TestStaleWindowIgnored(t *testing.T) {
	s := New(Options{})
	s.Append("a", ClassVirtual, 5, 1)
	s.Append("a", ClassVirtual, 5, 99) // duplicate
	s.Append("a", ClassVirtual, 3, 99) // stale
	s.Append("a", ClassVirtual, 6, 2)
	got := s.Range("a", 0, -1)
	want := []Sample{{Window: 5, Value: 1}, {Window: 6, Value: 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Range = %+v, want %+v", got, want)
	}
}

func TestDownsamplingTiers(t *testing.T) {
	s := New(Options{RawWindows: 16, AggBuckets: 8, Factors: []int{4}})
	// Windows 0..11, value == window index.
	for w := 0; w < 12; w++ {
		s.Append("x", ClassVirtual, w, float64(w))
	}
	aggs, err := s.RangeAgg("x", 0, -1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(aggs), aggs)
	}
	b := aggs[1] // windows 4..7
	if b.Window != 4 || b.Min != 4 || b.Max != 7 || b.Count != 4 || b.Sum != 22 {
		t.Fatalf("bucket[1] = %+v", b)
	}
	if m := b.Mean(); m != 5.5 {
		t.Fatalf("Mean = %v, want 5.5", m)
	}
	// Gap across a bucket boundary: the partial bucket stays partial.
	s.Append("x", ClassVirtual, 17, 100)
	aggs, _ = s.RangeAgg("x", 0, -1, 4)
	last := aggs[len(aggs)-1]
	if last.Window != 16 || last.Count != 1 || last.Min != 100 {
		t.Fatalf("gap bucket = %+v", last)
	}
	if _, err := s.RangeAgg("x", 0, -1, 5); err == nil {
		t.Fatal("RangeAgg with unknown factor should error")
	}
}

func TestAligned(t *testing.T) {
	s := New(Options{})
	for w := 0; w < 10; w++ {
		s.Append("a", ClassVirtual, w, float64(w))
		if w%2 == 0 {
			s.Append("b", ClassVirtual, w, float64(w*10))
		}
	}
	wins, vals := s.Aligned([]string{"a", "b"}, 0, -1)
	if len(wins) != 5 || wins[0] != 0 || wins[4] != 8 {
		t.Fatalf("aligned windows = %v", wins)
	}
	if vals[0][2] != 4 || vals[1][2] != 40 {
		t.Fatalf("aligned values = %v", vals)
	}
	if w, _ := s.Aligned([]string{"a", "nosuch"}, 0, -1); w != nil {
		t.Fatalf("aligned with unknown series = %v, want nil", w)
	}
}

func TestTrailingBefore(t *testing.T) {
	s := New(Options{})
	for w := 0; w < 10; w++ {
		s.Append("a", ClassVirtual, w, float64(w))
	}
	got := s.TrailingBefore("a", 7, 3)
	want := []float64{4, 5, 6}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Fatalf("TrailingBefore = %v, want %v", got, want)
	}
	if got := s.TrailingBefore("a", 0, 5); len(got) != 0 {
		t.Fatalf("TrailingBefore at window 0 = %v, want empty", got)
	}
}

func TestSummaries(t *testing.T) {
	s := New(Options{RawWindows: 4, AggBuckets: 4, Factors: []int{2}})
	for w := 0; w < 6; w++ {
		s.Append("z", ClassWall, w, float64(w))
		s.Append("a", ClassVirtual, w, float64(-w))
	}
	sums := s.Summaries(2)
	if len(sums) != 2 || sums[0].Name != "a" || sums[1].Name != "z" {
		t.Fatalf("summaries order = %+v", sums)
	}
	a := sums[0]
	// Ring holds windows 2..5 → values -2..-5.
	if a.Min != -5 || a.Max != -2 || a.Last != -5 || a.Windows != 6 || a.Class != "virtual" {
		t.Fatalf("summary a = %+v", a)
	}
	if len(a.Spark) != 2 || a.Spark[1] != -5 {
		t.Fatalf("spark = %v", a.Spark)
	}
	if sums[1].Class != "wall" {
		t.Fatalf("summary z class = %q", sums[1].Class)
	}
}

func TestStateRoundTripByteIdentical(t *testing.T) {
	build := func() *Store {
		s := New(Options{RawWindows: 8, AggBuckets: 4, Factors: []int{2, 4}})
		for w := 0; w < 25; w++ {
			s.Append("util", ClassVirtual, w, 0.1*float64(w*w%17))
			s.Append("watts", ClassVirtual, w, 100+float64(w%7))
			if w%3 == 0 {
				s.Append("wall", ClassWall, w, float64(w)*1.5)
			}
		}
		return s
	}
	orig := build()
	b1, err := json.Marshal(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	// JSON boundary, as a checkpoint file imposes.
	var st State
	if err := json.Unmarshal(b1, &st); err != nil {
		t.Fatal(err)
	}
	restored := New(Options{RawWindows: 8, AggBuckets: 4, Factors: []int{2, 4}})
	if err := restored.Restore(&st); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(restored.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("state round trip not byte-identical:\n%s\n%s", b1, b2)
	}
	// Queries answer identically too.
	q1, _ := orig.Query([]string{"util", "watts"}, 0, -1, 1)
	q2, _ := restored.Query([]string{"util", "watts"}, 0, -1, 1)
	j1, _ := json.Marshal(q1)
	j2, _ := json.Marshal(q2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("query after restore differs:\n%s\n%s", j1, j2)
	}
	// And appends continue from where the original left off.
	restored.Append("util", ClassVirtual, 25, 1)
	if got := restored.LastWindow(); got != 25 {
		t.Fatalf("LastWindow after post-restore append = %d", got)
	}
	if err := restored.Restore(&State{Schema: "bogus/v9"}); err == nil {
		t.Fatal("Restore should reject unknown schema")
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.Append("a", ClassVirtual, 0, 1)
	s.Reset()
	if s.Names() != nil || s.LastWindow() != -1 || s.State() != nil {
		t.Fatal("nil store leaked state")
	}
	if s.Range("a", 0, -1) != nil || s.LatestK("a", 3) != nil || s.Summaries(4) != nil {
		t.Fatal("nil store returned data")
	}
	if err := s.Restore(&State{Schema: Schema}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query([]string{"a"}, 0, -1, 1); err == nil {
		t.Fatal("nil store Query should error")
	}
	// The handler still serves the empty catalog.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/query", nil))
	if rr.Code != 200 {
		t.Fatalf("nil handler status %d", rr.Code)
	}
}

func TestQueryAutoStep(t *testing.T) {
	s := New(Options{RawWindows: 8, AggBuckets: 8, Factors: []int{4, 16}})
	for w := 0; w < 100; w++ {
		s.Append("a", ClassVirtual, w, float64(w))
	}
	// from=95 is inside raw retention → step 1.
	q, err := s.Query([]string{"a"}, 95, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Step != 1 || len(q.Points()) == 0 {
		t.Fatalf("auto step near tip = %d", q.Step)
	}
	// from=70 is past raw (92..99) but inside the 4x tier (68..99).
	q, err = s.Query([]string{"a"}, 70, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Step != 4 {
		t.Fatalf("auto step mid = %d, want 4", q.Step)
	}
	// from=0 is only reachable by the 16x tier? 16*8=128 > 100, so yes.
	q, err = s.Query([]string{"a"}, 0, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Step != 16 {
		t.Fatalf("auto step deep = %d, want 16", q.Step)
	}
}

// Points flattens the first series' raw points for test convenience.
func (r *QueryResponse) Points() []Sample {
	if len(r.Series) == 0 {
		return nil
	}
	return r.Series[0].Points
}

func TestHandler(t *testing.T) {
	s := New(Options{RawWindows: 16, AggBuckets: 8, Factors: []int{4}})
	for w := 0; w < 12; w++ {
		s.Append("util", ClassVirtual, w, float64(w))
		s.Append("watts", ClassVirtual, w, 100)
	}
	get := func(url string) (int, []byte) {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		return rr.Code, rr.Body.Bytes()
	}

	// Catalog.
	code, body := get("/v1/query")
	if code != 200 {
		t.Fatalf("catalog status %d: %s", code, body)
	}
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Schema != Schema || len(list.Series) != 2 || list.LastWindow != 11 {
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

	// Downsampled range.
	code, body = get("/v1/query?series=util&step=4")
	if code != 200 {
		t.Fatalf("agg status %d: %s", code, body)
	}
	qr = QueryResponse{}
	json.Unmarshal(body, &qr)
	if len(qr.Series[0].Aggs) != 3 || qr.Series[0].Aggs[1].Mean != 5.5 {
		t.Fatalf("aggs = %+v", qr.Series[0].Aggs)
	}

	// Latest-k.
	code, body = get("/v1/query?series=util&k=3")
	if code != 200 {
		t.Fatalf("k status %d: %s", code, body)
	}
	qr = QueryResponse{}
	json.Unmarshal(body, &qr)
	if pts := qr.Series[0].Points; len(pts) != 3 || pts[2].Window != 11 {
		t.Fatalf("latest-k = %+v", qr.Series[0].Points)
	}

	// Errors.
	if code, _ := get("/v1/query?series=nosuch"); code != 404 {
		t.Fatalf("unknown series status %d, want 404", code)
	}
	if code, _ := get("/v1/query?series=util&from=abc"); code != 400 {
		t.Fatalf("bad from status %d, want 400", code)
	}
	if code, _ := get("/v1/query?series=util&step=7"); code != 400 {
		t.Fatalf("bad step status %d, want 400", code)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/query", nil))
	if rr.Code != 405 {
		t.Fatalf("POST status %d, want 405", rr.Code)
	}
}

func TestHandlerDeterministicBytes(t *testing.T) {
	build := func() *Store {
		s := New(Options{})
		for w := 0; w < 40; w++ {
			s.Append("util", ClassVirtual, w, float64(w%7)*0.25)
			s.Append("watts", ClassVirtual, w, 100+float64(w%3))
		}
		return s
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

func TestFromState(t *testing.T) {
	s := New(Options{})
	for w := 0; w < 5; w++ {
		s.Append("a", ClassVirtual, w, float64(w))
	}
	got, err := FromState(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if got.LastWindow() != 4 || len(got.Range("a", 0, -1)) != 5 {
		t.Fatal("FromState lost data")
	}
}

func BenchmarkAppend(b *testing.B) {
	s := New(Options{})
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("series_%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			s.Append(n, ClassVirtual, i, float64(i))
		}
	}
}
