package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
)

func TestAppendRangeAndLatestK(t *testing.T) {
	s := New(Options{})
	n := rawWindows + 12
	for w := 0; w < n; w++ {
		s.Append("util", ClassVirtual, w, float64(w)*0.5)
	}
	if got := s.LastWindow(); got != n-1 {
		t.Fatalf("LastWindow = %d, want %d", got, n-1)
	}
	// The raw ring keeps the newest rawWindows windows: 12..n-1.
	all := s.Range("util", 0, -1)
	if len(all) != rawWindows || all[0].Window != 12 || all[rawWindows-1].Window != n-1 {
		t.Fatalf("Range full = %d samples, %+v..%+v", len(all), all[0], all[len(all)-1])
	}
	mid := s.Range("util", 14, 16)
	if len(mid) != 3 || mid[0].Window != 14 || mid[2].Window != 16 {
		t.Fatalf("Range[14,16] = %+v", mid)
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
	s := New(Options{})
	f := factors[0]
	// Windows 0..3f-1, value == window index.
	for w := 0; w < 3*f; w++ {
		s.Append("x", ClassVirtual, w, float64(w))
	}
	aggs, err := s.RangeAgg("x", 0, -1, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(aggs), aggs)
	}
	// Bucket 1 holds windows f..2f-1.
	b, sum := aggs[1], float64(f*(3*f-1)/2)
	if b.Window != f || b.Min != float64(f) || b.Max != float64(2*f-1) || b.Count != f || b.Sum != sum {
		t.Fatalf("bucket[1] = %+v", b)
	}
	if m := b.Mean(); m != sum/float64(f) {
		t.Fatalf("Mean = %v, want %v", m, sum/float64(f))
	}
	// Gap across a bucket boundary: the partial bucket stays partial.
	s.Append("x", ClassVirtual, 4*f+1, 100)
	aggs, _ = s.RangeAgg("x", 0, -1, f)
	last := aggs[len(aggs)-1]
	if last.Window != 4*f || last.Count != 1 || last.Min != 100 {
		t.Fatalf("gap bucket = %+v", last)
	}
	if _, err := s.RangeAgg("x", 0, -1, f+1); err == nil {
		t.Fatal("RangeAgg with unknown factor should error")
	}
}

func TestSummaries(t *testing.T) {
	s := New(Options{})
	n := rawWindows + 2
	for w := 0; w < n; w++ {
		s.Append("z", ClassWall, w, float64(w))
		s.Append("a", ClassVirtual, w, float64(-w))
	}
	sums := s.Summaries(2)
	if len(sums) != 2 || sums[0].Name != "a" || sums[1].Name != "z" {
		t.Fatalf("summaries order = %+v", sums)
	}
	a := sums[0]
	// The ring holds windows 2..n-1, so the values -2..-(n-1).
	lo := float64(-(n - 1))
	if a.Min != lo || a.Max != -2 || a.Last != lo || a.Windows != n || a.Class != "virtual" {
		t.Fatalf("summary a = %+v", a)
	}
	if len(a.Spark) != 2 || a.Spark[1] != lo {
		t.Fatalf("spark = %v", a.Spark)
	}
	if sums[1].Class != "wall" {
		t.Fatalf("summary z class = %q", sums[1].Class)
	}
}

func TestStateRoundTripByteIdentical(t *testing.T) {
	// Enough windows to wrap the raw ring and the finest coarse tier.
	n := factors[0]*aggBuckets + 100
	build := func() *Store {
		s := New(Options{})
		for w := 0; w < n; w++ {
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
	restored := New(Options{})
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
	// Queries answer identically too, at every resolution.
	for _, step := range orig.Steps() {
		q1, _ := orig.Query([]string{"util", "watts"}, 0, -1, step)
		q2, _ := restored.Query([]string{"util", "watts"}, 0, -1, step)
		j1, _ := json.Marshal(q1)
		j2, _ := json.Marshal(q2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("step %d query after restore differs:\n%s\n%s", step, j1, j2)
		}
	}
	// And appends continue from where the original left off.
	restored.Append("util", ClassVirtual, n, 1)
	if got := restored.LastWindow(); got != n {
		t.Fatalf("LastWindow after post-restore append = %d", got)
	}
	if err := restored.Restore(&State{Schema: "bogus/v9"}); err == nil {
		t.Fatal("Restore should reject unknown schema")
	}
}

// TestRestoreRefusesUnrepresentableStates feeds Restore states that no
// sequence of appends builds. Each is refused, and the store keeps what it
// held.
func TestRestoreRefusesUnrepresentableStates(t *testing.T) {
	at := func(name string, windows ...int) SeriesState {
		ss := SeriesState{Name: name, Class: "virtual", Total: len(windows)}
		for _, w := range windows {
			ss.Raw = append(ss.Raw, Sample{Window: w, Value: float64(w)})
		}
		return ss
	}
	with := func(ss SeriesState, edit func(*SeriesState)) SeriesState { edit(&ss); return ss }
	for _, c := range []struct {
		name string
		st   State
	}{
		// Accepted, it would lose the first a's samples and list a twice.
		{"duplicate name", State{LastWindow: 2, Series: []SeriesState{at("a", 1), at("a", 2), at("b", 2)}}},
		// Accepted, a later Append(…, 3, …) would add window 3 again.
		{"raw windows out of order", State{LastWindow: 3, Series: []SeriesState{at("a", 3, 2)}}},
		// Accepted, Query(…, to=-1) would answer "To": -5 with the
		// window-10 point.
		{"sample past the last window", State{LastWindow: -5, Series: []SeriesState{at("a", 10)}}},
		{"last window below -1", State{LastWindow: -5}},
		{"unknown class", State{LastWindow: 1, Series: []SeriesState{with(at("a", 1), func(ss *SeriesState) { ss.Class = "cpu" })}}},
		{"total below the raw samples", State{LastWindow: 2, Series: []SeriesState{with(at("a", 1, 2), func(ss *SeriesState) { ss.Total = 1 })}}},
		{"unknown tier factor", State{LastWindow: 1, Series: []SeriesState{with(at("a", 1), func(ss *SeriesState) {
			ss.Tiers = []TierState{{Factor: 4, Buckets: []Agg{{Window: 0, Count: 1}}}}
		})}}},
		{"tier bucket off its factor", State{LastWindow: 9, Series: []SeriesState{with(at("a", 9), func(ss *SeriesState) {
			ss.Tiers = []TierState{{Factor: factors[0], Buckets: []Agg{{Window: 9, Count: 1}}}}
		})}}},
	} {
		s := New(Options{})
		s.Append("kept", ClassVirtual, 0, 7)
		before, _ := json.Marshal(s.State())
		c.st.Schema = Schema
		if err := s.Restore(&c.st); err == nil {
			t.Errorf("%s: Restore accepted %+v", c.name, c.st)
		}
		if after, _ := json.Marshal(s.State()); !bytes.Equal(before, after) {
			t.Errorf("%s: a refused Restore changed the store:\n%s\n%s", c.name, before, after)
		}
	}
}

// FuzzStoreRestore feeds Restore a real checkpoint's history (testdata,
// the scenario.history of mistral-sim -apps 1 -duration 20m -slo
// -checkpoint), truncations of it and hand-made defects. Restore must not
// panic, and a state it accepts is one appends could have built: it
// re-encodes through State and restores to the same State, its names are
// unique, and each raw series rises strictly to at most the last window.
func FuzzStoreRestore(f *testing.F) {
	raw, err := os.ReadFile("testdata/history.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, n := range []int{0, 1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
	head := `{"schema":"` + Schema + `",`
	for _, defect := range []string{
		`"last_window":2,"series":[{"name":"a","class":"virtual","total":1,"raw":[{"w":1}]},{"name":"a","class":"virtual","total":1,"raw":[{"w":2}]}]}`,
		`"last_window":3,"series":[{"name":"a","class":"wall","total":2,"raw":[{"w":3},{"w":2}]}]}`,
		`"last_window":-5,"series":[{"name":"a","class":"virtual","total":1,"raw":[{"w":10}]}]}`,
		`"last_window":70,"series":[{"name":"a","class":"virtual","total":1,"tiers":[{"factor":64,"buckets":[{"w":64,"n":1}]},{"factor":8,"buckets":[{"w":64,"n":1}]}]}]}`,
		`"last_window":1,"series":[{"name":"a","class":"","total":-1}]}`,
	} {
		f.Add([]byte(head + defect))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if json.Unmarshal(data, &st) != nil {
			return
		}
		s := New(Options{})
		if s.Restore(&st) != nil {
			return
		}
		enc, err := json.Marshal(s.State())
		if err != nil {
			t.Fatal(err)
		}
		var again State
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatal(err)
		}
		s2 := New(Options{})
		if err := s2.Restore(&again); err != nil {
			t.Fatalf("restoring an accepted state's re-encoding: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(s2.State()); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoded state restores differently:\n%s\n%s", enc, enc2)
		}
		names, last := s.Names(), s.LastWindow()
		for i, name := range names {
			if i > 0 && names[i-1] == name {
				t.Fatalf("series %q restored twice: %v", name, names)
			}
			prev := -1
			for _, p := range s.Range(name, 0, -1) {
				if p.Window <= prev || p.Window > last {
					t.Fatalf("series %q: window %d after %d, last window %d", name, p.Window, prev, last)
				}
				prev = p.Window
			}
		}
		if _, err := s.Query(names, 0, -1, 0); err != nil {
			t.Fatalf("query over an accepted state: %v", err)
		}
	})
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
	s := New(Options{})
	last := factors[0]*aggBuckets + 99
	for w := 0; w <= last; w++ {
		s.Append("a", ClassVirtual, w, float64(w))
	}
	for _, c := range []struct{ from, step int }{
		{last - 10, 1},                       // inside raw retention
		{last - rawWindows - 10, factors[0]}, // past raw, inside the finest tier
		{0, factors[1]},                      // only the coarsest tier reaches back
	} {
		q, err := s.Query([]string{"a"}, c.from, -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if q.Step != c.step || len(q.Series[0].Points)+len(q.Series[0].Aggs) == 0 {
			t.Fatalf("auto step from %d = %d over %+v, want %d", c.from, q.Step, q.Series[0], c.step)
		}
	}
}

func TestHandler(t *testing.T) {
	s := New(Options{})
	f := factors[0]
	for w := 0; w < 3*f; w++ {
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

	// Downsampled range.
	code, body = get(fmt.Sprintf("/v1/query?series=util&step=%d", f))
	if code != 200 {
		t.Fatalf("agg status %d: %s", code, body)
	}
	qr = QueryResponse{}
	json.Unmarshal(body, &qr)
	if len(qr.Series[0].Aggs) != 3 || qr.Series[0].Aggs[1].Mean != float64(3*f-1)/2 {
		t.Fatalf("aggs = %+v", qr.Series[0].Aggs)
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
	if code, _ := get(fmt.Sprintf("/v1/query?series=util&step=%d", f+1)); code != 400 {
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
