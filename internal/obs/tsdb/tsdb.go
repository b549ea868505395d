// Package tsdb is Mistral's embedded telemetry history plane: a
// zero-dependency, deterministic, windowed view over a run's per-window
// series, keyed by monitoring-window index — virtual time, never wall clock
// — so "how did power draw evolve over the last few hundred windows" is one
// in-process query instead of an offline provenance replay.
//
// The store holds no samples. Its writer publishes a header — the series
// names, how many rows (windows) exist, and a function reading one cell —
// and every query reads the newest rawWindows rows through that function.
// The scenario engine publishes a view of Result.Windows after each
// completed window and after a restore, so the history is never persisted.
//
// Determinism is the design constraint the whole control plane already
// lives under: rows are window indices and every query renders series in
// sorted-name order, so two runs with the same seed produce byte-identical
// query responses.
//
// A nil *Store is a valid disabled store: every method returns
// immediately, so instrumented paths pay only a nil check when history is
// off.
package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Schema versions the query responses.
const Schema = "mistral.tsdb/v1"

// rawWindows is how many of the newest rows every query reads.
const rawWindows = 512

// Options configures New. It has no fields: the retention is fixed.
type Options struct{}

// Sample is one raw observation: a value at a window index.
type Sample struct {
	Window int     `json:"w"`
	Value  float64 `json:"v"`
}

// Store is the telemetry history plane: one writer (the scenario engine,
// once per window) plus concurrent readers (the /v1/query handler, /ops
// summaries, mistral-explain). A nil *Store is a valid disabled store.
//
// The lock guards only the header. The writer promises that a published
// cell never changes, so readers call value without holding it.
type Store struct {
	mu sync.RWMutex
	v  view
}

// view is the published header: sorted series names, the row count, and
// the function reading one cell.
type view struct {
	names []string
	rows  int
	value func(col, row int) float64
}

// New builds an empty store.
func New(Options) *Store { return &Store{} }

// Publish replaces the store's view: names (sorted) are the series, rows
// the windows 0..rows-1, and value(col, row) the value of series names[col]
// at window row. Every cell published must keep its value for as long as
// the view is served; readers call value concurrently with the writer.
func (s *Store) Publish(names []string, rows int, value func(col, row int) float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.v = view{names, rows, value}
}

// view returns the header; before the first row it names no series.
func (s *Store) view() view {
	if s == nil {
		return view{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.v.rows == 0 {
		return view{}
	}
	return s.v
}

// col returns the named series' column, or -1 when it is unknown.
func (v view) col(name string) int {
	for i, n := range v.names {
		if n == name {
			return i
		}
	}
	return -1
}

// first is the oldest retained row.
func (v view) first() int { return max(0, v.rows-rawWindows) }

// between reads one column's retained rows with window in [from, to]; to < 0
// means "through the latest window". An unknown column (-1) reads nothing.
func (v view) between(col, from, to int) []Sample {
	if to < 0 || to >= v.rows {
		to = v.rows - 1
	}
	from = max(from, v.first())
	if col < 0 || from > to {
		return nil
	}
	out := make([]Sample, 0, to-from+1)
	for row := from; row <= to; row++ {
		out = append(out, Sample{Window: row, Value: v.value(col, row)})
	}
	return out
}

// Names returns the series names in sorted order; none before the first
// row.
func (s *Store) Names() []string {
	return append([]string(nil), s.view().names...)
}

// LastWindow returns the newest window index (-1 when empty).
func (s *Store) LastWindow() int { return s.view().rows - 1 }

// Range returns the retained samples of one series with Window in
// [from, to]. to < 0 means "through the latest window".
func (s *Store) Range(name string, from, to int) []Sample {
	v := s.view()
	return v.between(v.col(name), from, to)
}

// LatestK returns the newest k samples of one series, oldest first.
func (s *Store) LatestK(name string, k int) []Sample {
	if k <= 0 {
		return nil
	}
	v := s.view()
	return v.between(v.col(name), v.rows-k, -1)
}

// Summary is one series' digest for the /ops snapshot and mistral-explain:
// min/max/last over the retained samples plus an optional sparkline vector
// of the newest values. Windows counts every window, retained or not.
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
	v := s.view()
	out := make([]Summary, 0, len(v.names))
	for c, name := range v.names {
		sum := Summary{Name: name, Windows: v.rows}
		if sparkN > 0 {
			sum.Spark = make([]float64, 0, min(sparkN, v.rows-v.first()))
		}
		for row := v.first(); row < v.rows; row++ {
			x := v.value(c, row)
			if row == v.first() || x < sum.Min {
				sum.Min = x
			}
			if row == v.first() || x > sum.Max {
				sum.Max = x
			}
			sum.Last = x
			if sparkN > 0 && row >= v.rows-sparkN {
				sum.Spark = append(sum.Spark, x)
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
// "through the latest window".
func (s *Store) Query(names []string, from, to int) (*QueryResponse, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: history disabled")
	}
	v := s.view()
	from = max(from, 0)
	if to < 0 {
		to = v.rows - 1
	}
	resp := &QueryResponse{Schema: Schema, From: from, To: to}
	for _, name := range names {
		c := v.col(name)
		if c < 0 {
			return nil, fmt.Errorf("tsdb: unknown series %q", name)
		}
		resp.Series = append(resp.Series, QuerySeries{Name: name, Points: v.between(c, from, to)})
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
			v := s.view()
			from := max(v.first(), v.rows-k)
			resp := &QueryResponse{Schema: Schema, From: from, To: v.rows - 1}
			for _, name := range split {
				c := v.col(name)
				if s != nil && c < 0 {
					writeErr(http.StatusNotFound, fmt.Sprintf("unknown series %q", name))
					return
				}
				resp.Series = append(resp.Series, QuerySeries{Name: name, Points: v.between(c, from, -1)})
			}
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
