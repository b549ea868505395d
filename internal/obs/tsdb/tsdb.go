// Package tsdb is Mistral's embedded telemetry history plane: a
// zero-dependency, deterministic, windowed time-series store. Every series
// is a fixed-capacity ring of the last rawWindows samples, keyed by
// monitoring-window index — virtual time, never wall clock — so "how did
// power draw evolve over the last few hundred windows" is one in-process
// query instead of an offline provenance replay.
//
// The store is a view, not a record: the scenario engine folds each
// completed window's log into it, and rebuilds it from the run's window
// logs after a restore, so it is never persisted.
//
// Determinism is the design constraint the whole control plane already
// lives under: appends are keyed by window index and every query renders
// series in sorted-name order, so two runs with the same seed produce
// byte-identical query responses.
//
// A nil *Store is a valid disabled store: every method returns
// immediately, so instrumented paths pay only a nil check when history is
// off.
package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Schema versions the query responses.
const Schema = "mistral.tsdb/v1"

// rawWindows is each series' capacity: the ring keeps the newest
// rawWindows samples.
const rawWindows = 512

// Options configures New. It has no fields: the capacity is fixed.
type Options struct{}

// Sample is one raw observation: a value at a window index.
type Sample struct {
	Window int     `json:"w"`
	Value  float64 `json:"v"`
}

// series is one named time series: a circular buffer whose oldest sample
// sits at head.
type series struct {
	buf  []Sample
	head int
	n    int
	// total counts every sample ever appended, including evicted ones.
	total int
}

func (se *series) push(p Sample) {
	if se.n < len(se.buf) {
		se.buf[(se.head+se.n)%len(se.buf)] = p
		se.n++
	} else {
		se.buf[se.head] = p
		se.head = (se.head + 1) % len(se.buf)
	}
	se.total++
}

// at returns the i-th retained sample, oldest first.
func (se *series) at(i int) Sample { return se.buf[(se.head+i)%len(se.buf)] }

// newest returns the last k retained samples, oldest first.
func (se *series) newest(k int) []Sample {
	k = min(k, se.n)
	out := make([]Sample, 0, k)
	for i := se.n - k; i < se.n; i++ {
		out = append(out, se.at(i))
	}
	return out
}

// Store is the telemetry history plane: one writer (the scenario engine,
// once per window) plus concurrent readers (the /v1/query handler, /ops
// summaries, mistral-explain). A nil *Store is a valid disabled store.
type Store struct {
	mu     sync.RWMutex
	series map[string]*series
	names  []string // sorted
	last   int      // highest window appended, -1 before the first
}

// New builds an empty store.
func New(Options) *Store {
	return &Store{series: make(map[string]*series), last: -1}
}

// Reset drops every series, returning the store to its freshly built
// state. Sequential runs over a shared observer each re-begin.
func (s *Store) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.series = make(map[string]*series)
	s.names = nil
	s.last = -1
}

// Append records one sample. The series is created on first use; within a
// series, windows must be strictly increasing — a stale or duplicate
// window is ignored rather than corrupting the ring order.
func (s *Store) Append(name string, window int, value float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.series[name]
	if se == nil {
		se = &series{buf: make([]Sample, rawWindows)}
		s.series[name] = se
		i := sort.SearchStrings(s.names, name)
		s.names = append(s.names, "")
		copy(s.names[i+1:], s.names[i:])
		s.names[i] = name
	} else if se.n > 0 && window <= se.at(se.n-1).Window {
		return
	}
	se.push(Sample{Window: window, Value: value})
	if window > s.last {
		s.last = window
	}
}

// Names returns the series names in sorted order.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// LastWindow returns the highest window index appended (-1 when empty).
func (s *Store) LastWindow() int {
	if s == nil {
		return -1
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.last
}

// Range returns the samples of one series with Window in [from, to].
// to < 0 means "through the latest window".
func (s *Store) Range(name string, from, to int) []Sample {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	se := s.series[name]
	if se == nil {
		return nil
	}
	var out []Sample
	for i := 0; i < se.n; i++ {
		p := se.at(i)
		if p.Window < from || (to >= 0 && p.Window > to) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// LatestK returns the newest k samples of one series, oldest first.
func (s *Store) LatestK(name string, k int) []Sample {
	if s == nil || k <= 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	se := s.series[name]
	if se == nil {
		return nil
	}
	return se.newest(k)
}

// Summary is one series' digest for the /ops snapshot and mistral-explain:
// min/max/last over the retained samples plus an optional sparkline vector
// of the newest values. Windows counts every sample ever appended.
type Summary struct {
	Name    string    `json:"name"`
	Windows int       `json:"windows"`
	Last    float64   `json:"last"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Spark   []float64 `json:"spark,omitempty"`
}

// Summaries digests every series in sorted-name order; sparkN > 0 attaches
// the newest sparkN values as the sparkline vector.
func (s *Store) Summaries(sparkN int) []Summary {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Summary, 0, len(s.names))
	for _, name := range s.names {
		se := s.series[name]
		first := se.at(0)
		sum := Summary{Name: name, Windows: se.total, Min: first.Value, Max: first.Value}
		for i := 0; i < se.n; i++ {
			v := se.at(i).Value
			if v < sum.Min {
				sum.Min = v
			}
			if v > sum.Max {
				sum.Max = v
			}
			sum.Last = v
		}
		if sparkN > 0 {
			for _, p := range se.newest(sparkN) {
				sum.Spark = append(sum.Spark, p.Value)
			}
		}
		out = append(out, sum)
	}
	return out
}

// QuerySeries is one series' slice of a /v1/query response.
type QuerySeries struct {
	Name   string   `json:"name"`
	Points []Sample `json:"points,omitempty"`
}

// QueryResponse is the /v1/query document. It carries no wall-clock or
// store-global fields, so the same query over the same windows renders
// byte-identically — the CI contract across a checkpoint/restore cycle.
type QueryResponse struct {
	Schema string        `json:"schema"`
	From   int           `json:"from"`
	To     int           `json:"to"`
	Series []QuerySeries `json:"series"`
}

// ListResponse is the /v1/query document served without a series
// parameter: the store's catalog.
type ListResponse struct {
	Schema     string    `json:"schema"`
	LastWindow int       `json:"last_window"`
	Series     []Summary `json:"series"`
}

// Query answers one range query over several series. to < 0 means
// "through the latest appended window".
func (s *Store) Query(names []string, from, to int) (*QueryResponse, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: history disabled")
	}
	if from < 0 {
		from = 0
	}
	if to < 0 {
		to = s.LastWindow()
	}
	resp := &QueryResponse{Schema: Schema, From: from, To: to}
	for _, name := range names {
		if !s.has(name) {
			return nil, fmt.Errorf("tsdb: unknown series %q", name)
		}
		resp.Series = append(resp.Series, QuerySeries{Name: name, Points: s.Range(name, from, to)})
	}
	return resp, nil
}

// Handler serves the trend-query API:
//
//	GET /v1/query                          → series catalog
//	GET /v1/query?series=a,b&from=N&to=N   → range query
//	GET /v1/query?series=a&k=N             → latest-k samples
//
// Works on a nil store (serves an empty catalog), so the route can always
// be mounted. A step parameter is refused: the store keeps raw samples
// only, and a client asking for downsampled buckets must not silently get
// raw points instead.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeErr := func(status int, msg string) {
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": msg})
		}
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeErr(http.StatusMethodNotAllowed, "GET required")
			return
		}
		q := r.URL.Query()
		if q.Has("step") {
			writeErr(http.StatusBadRequest, "step is not supported: the store serves raw samples only")
			return
		}
		atoi := func(key string, def int) (int, error) {
			v := q.Get(key)
			if v == "" {
				return def, nil
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return 0, fmt.Errorf("bad %s=%q", key, v)
			}
			return n, nil
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		names := q.Get("series")
		if names == "" {
			enc.Encode(ListResponse{Schema: Schema, LastWindow: s.LastWindow(), Series: s.Summaries(0)})
			return
		}
		split := strings.Split(names, ",")
		k, err := atoi("k", 0)
		if err != nil {
			writeErr(http.StatusBadRequest, err.Error())
			return
		}
		if k > 0 {
			resp := &QueryResponse{Schema: Schema, From: -1, To: s.LastWindow()}
			for _, name := range split {
				if s != nil && !s.has(name) {
					writeErr(http.StatusNotFound, fmt.Sprintf("unknown series %q", name))
					return
				}
				pts := s.LatestK(name, k)
				if len(pts) > 0 && (resp.From < 0 || pts[0].Window < resp.From) {
					resp.From = pts[0].Window
				}
				resp.Series = append(resp.Series, QuerySeries{Name: name, Points: pts})
			}
			resp.From = max(resp.From, 0)
			enc.Encode(resp)
			return
		}
		from, err := atoi("from", 0)
		if err != nil {
			writeErr(http.StatusBadRequest, err.Error())
			return
		}
		to, err := atoi("to", -1)
		if err != nil {
			writeErr(http.StatusBadRequest, err.Error())
			return
		}
		resp, err := s.Query(split, from, to)
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "unknown series") {
				status = http.StatusNotFound
			}
			writeErr(status, err.Error())
			return
		}
		enc.Encode(resp)
	})
}

// has reports whether the named series exists.
func (s *Store) has(name string) bool {
	if s == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.series[name] != nil
}
