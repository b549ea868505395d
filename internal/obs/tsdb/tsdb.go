// Package tsdb is Mistral's embedded telemetry history plane: a
// zero-dependency, deterministic, windowed time-series store. Every series
// is a fixed-capacity ring keyed by monitoring-window index — virtual
// time, never wall clock — with tiered downsampling behind it: the raw
// tier keeps the last rawWindows samples exactly, and each coarser tier
// keeps min/max/sum/count aggregates over factors[i]-window buckets, so
// "how did power draw evolve over the last 5,000 windows" is one
// in-process query instead of an offline provenance replay.
//
// Determinism is the design constraint the whole control plane already
// lives under: appends are keyed by window index, aggregation is plain
// float64 arithmetic in append order, and every query renders series in
// sorted-name order, so two runs with the same seed produce
// byte-identical query responses and State documents. Wall-clock-valued
// series (decide wall latency) are carried with Class ClassWall so
// consumers can tell the observational series from the reproducible ones.
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

// Schema versions the query responses and the persisted State document.
const Schema = "mistral.tsdb/v1"

// Class distinguishes reproducible series from observational ones.
type Class int

const (
	// ClassVirtual marks a series whose values are deterministic at a
	// fixed seed (virtual-time quantities and counts).
	ClassVirtual Class = iota
	// ClassWall marks a series carrying wall-clock measurements
	// (observational only; never byte-stable across runs).
	ClassWall
)

// String renders the class for JSON documents.
func (c Class) String() string {
	if c == ClassWall {
		return "wall"
	}
	return "virtual"
}

// parseClass inverts String for State restore.
func parseClass(s string) (Class, error) {
	switch s {
	case "virtual":
		return ClassVirtual, nil
	case "wall":
		return ClassWall, nil
	}
	return 0, fmt.Errorf("tsdb: unknown series class %q", s)
}

// The store's capacities. The raw tier keeps the last rawWindows samples
// exactly; each coarse tier keeps aggBuckets buckets, one bucket
// aggregating factors[i] consecutive windows.
const (
	rawWindows = 512
	aggBuckets = 256
)

var factors = [...]int{8, 64}

// Options configures New. It has no fields: the capacities are fixed.
type Options struct{}

// Sample is one raw observation: a value at a window index.
type Sample struct {
	Window int     `json:"w"`
	Value  float64 `json:"v"`
}

// Agg is one downsampled bucket: min/max/sum/count over the windows in
// [Window, Window+factor). Mean is Sum/Count; Sum is stored (not the mean)
// so the aggregate round-trips through JSON bit-exactly.
type Agg struct {
	Window int     `json:"w"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Sum    float64 `json:"sum"`
	Count  int     `json:"n"`
}

// Mean is the bucket's arithmetic mean.
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// ring is a fixed-capacity circular buffer; index 0 is the oldest entry.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[T]) last() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.at(r.n - 1), true
}

// slice returns the ring contents oldest-first as a fresh slice.
func (r *ring[T]) slice() []T {
	out := make([]T, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.at(i)
	}
	return out
}

// tier is one downsampled resolution of a series.
type tier struct {
	factor  int
	buckets *ring[Agg]
}

// fold merges a raw sample into the tier's current bucket, opening a new
// bucket when the sample crosses a factor boundary.
func (t *tier) fold(window int, value float64) {
	start := window - window%t.factor
	if last, ok := t.buckets.last(); ok && last.Window == start {
		i := (t.buckets.head + t.buckets.n - 1) % len(t.buckets.buf)
		b := &t.buckets.buf[i]
		if value < b.Min {
			b.Min = value
		}
		if value > b.Max {
			b.Max = value
		}
		b.Sum += value
		b.Count++
		return
	}
	t.buckets.push(Agg{Window: start, Min: value, Max: value, Sum: value, Count: 1})
}

// series is one named time series with its raw ring and coarse tiers.
type series struct {
	name  string
	class Class
	raw   *ring[Sample]
	tiers []*tier
	// total counts every sample ever appended, including evicted ones.
	total int
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

func (s *Store) newSeries(name string, class Class) *series {
	se := &series{
		name:  name,
		class: class,
		raw:   newRing[Sample](rawWindows),
	}
	for _, f := range factors {
		se.tiers = append(se.tiers, &tier{factor: f, buckets: newRing[Agg](aggBuckets)})
	}
	s.series[name] = se
	i := sort.SearchStrings(s.names, name)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = name
	return se
}

// Append records one sample. The series is created on first use; within a
// series, windows must be strictly increasing — a stale or duplicate
// window is ignored rather than corrupting the ring order.
func (s *Store) Append(name string, class Class, window int, value float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.series[name]
	if se == nil {
		se = s.newSeries(name, class)
	}
	if last, ok := se.raw.last(); ok && window <= last.Window {
		return
	}
	se.raw.push(Sample{Window: window, Value: value})
	se.total++
	for _, t := range se.tiers {
		t.fold(window, value)
	}
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

// Steps returns the query resolutions the store serves: 1 (raw) followed
// by the coarsening factors.
func (s *Store) Steps() []int {
	if s == nil {
		return nil
	}
	return append([]int{1}, factors[:]...)
}

// Range returns the raw samples of one series with Window in [from, to].
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
	for i := 0; i < se.raw.n; i++ {
		p := se.raw.at(i)
		if p.Window < from || (to >= 0 && p.Window > to) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// RangeAgg returns one series' downsampled buckets whose start window
// falls in [from, to] at the given coarsening factor, which must be one of
// the store's factors.
func (s *Store) RangeAgg(name string, from, to, factor int) ([]Agg, error) {
	if s == nil {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	se := s.series[name]
	if se == nil {
		return nil, nil
	}
	for _, t := range se.tiers {
		if t.factor != factor {
			continue
		}
		var out []Agg
		for i := 0; i < t.buckets.n; i++ {
			b := t.buckets.at(i)
			if b.Window < from || (to >= 0 && b.Window > to) {
				continue
			}
			out = append(out, b)
		}
		return out, nil
	}
	return nil, fmt.Errorf("tsdb: no %dx tier (have %v)", factor, factors)
}

// LatestK returns the newest k raw samples of one series, oldest first.
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
	n := se.raw.n
	if k > n {
		k = n
	}
	out := make([]Sample, 0, k)
	for i := n - k; i < n; i++ {
		out = append(out, se.raw.at(i))
	}
	return out
}

// Summary is one series' digest for the /ops snapshot and mistral-explain:
// per-series min/max/last over the retained raw tier plus an optional
// sparkline vector of the newest values.
type Summary struct {
	Name    string    `json:"name"`
	Class   string    `json:"class"`
	Windows int       `json:"windows"`
	Last    float64   `json:"last"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Spark   []float64 `json:"spark,omitempty"`
}

// Summaries digests every series in sorted-name order; sparkN > 0 attaches
// the newest sparkN raw values as the sparkline vector.
func (s *Store) Summaries(sparkN int) []Summary {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Summary, 0, len(s.names))
	for _, name := range s.names {
		se := s.series[name]
		if se.raw.n == 0 {
			continue
		}
		first := se.raw.at(0)
		sum := Summary{
			Name:    name,
			Class:   se.class.String(),
			Windows: se.total,
			Min:     first.Value,
			Max:     first.Value,
		}
		for i := 0; i < se.raw.n; i++ {
			v := se.raw.at(i).Value
			if v < sum.Min {
				sum.Min = v
			}
			if v > sum.Max {
				sum.Max = v
			}
			sum.Last = v
		}
		if sparkN > 0 {
			k := sparkN
			if k > se.raw.n {
				k = se.raw.n
			}
			sum.Spark = make([]float64, 0, k)
			for i := se.raw.n - k; i < se.raw.n; i++ {
				sum.Spark = append(sum.Spark, se.raw.at(i).Value)
			}
		}
		out = append(out, sum)
	}
	return out
}

// SeriesState is one series' complete ring contents in serializable form.
type SeriesState struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	Total int    `json:"total"`
	// Raw holds the retained raw samples oldest-first.
	Raw []Sample `json:"raw,omitempty"`
	// Tiers holds each downsampled tier's retained buckets oldest-first,
	// in factors order.
	Tiers []TierState `json:"tiers,omitempty"`
}

// TierState is one downsampled tier in serializable form.
type TierState struct {
	Factor  int   `json:"factor"`
	Buckets []Agg `json:"buckets,omitempty"`
}

// State is the store's complete contents for checkpoint/restore. Floats
// round-trip through JSON via shortest representation, so a restored
// store answers queries byte-identically to the one that was captured.
type State struct {
	Schema     string        `json:"schema"`
	LastWindow int           `json:"last_window"`
	Series     []SeriesState `json:"series,omitempty"`
}

// State captures the store's contents; a nil store yields nil.
func (s *Store) State() *State {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := &State{Schema: Schema, LastWindow: s.last}
	for _, name := range s.names {
		se := s.series[name]
		ss := SeriesState{
			Name:  name,
			Class: se.class.String(),
			Total: se.total,
			Raw:   se.raw.slice(),
		}
		for _, t := range se.tiers {
			ss.Tiers = append(ss.Tiers, TierState{Factor: t.factor, Buckets: t.buckets.slice()})
		}
		st.Series = append(st.Series, ss)
	}
	return st
}

// Restore overwrites the store's contents with a captured State. Rings are
// refilled newest-last; contents beyond the store's capacities keep only
// the newest entries. A nil state just resets the store. A state the store
// could not have produced is refused before anything is overwritten.
func (s *Store) Restore(st *State) error {
	if s == nil {
		return nil
	}
	if st == nil {
		s.Reset()
		return nil
	}
	if err := st.check(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.series = make(map[string]*series)
	s.names = nil
	s.last = st.LastWindow
	for _, ss := range st.Series {
		class, _ := parseClass(ss.Class) // checked
		se := s.newSeries(ss.Name, class)
		se.total = ss.Total
		for _, p := range ss.Raw {
			se.raw.push(p)
		}
		for i, ts := range ss.Tiers {
			for _, b := range ts.Buckets {
				se.tiers[i].buckets.push(b)
			}
		}
	}
	return nil
}

// check refuses what Append could never have built: Append keys each
// series by a unique name and keeps its windows strictly increasing and at
// most the store's last window, and the ring order is what later appends
// and queries rely on.
func (st *State) check() error {
	if st.Schema != Schema {
		return fmt.Errorf("tsdb: unsupported history schema %q (want %q)", st.Schema, Schema)
	}
	if st.LastWindow < -1 {
		return fmt.Errorf("tsdb: last window %d", st.LastWindow)
	}
	seen := make(map[string]bool, len(st.Series))
	for _, ss := range st.Series {
		if seen[ss.Name] {
			return fmt.Errorf("tsdb: series %q appears twice", ss.Name)
		}
		seen[ss.Name] = true
		if _, err := parseClass(ss.Class); err != nil {
			return err
		}
		if ss.Total < len(ss.Raw) {
			return fmt.Errorf("tsdb: series %q: total %d below its %d raw samples", ss.Name, ss.Total, len(ss.Raw))
		}
		if len(ss.Tiers) > len(factors) {
			return fmt.Errorf("tsdb: series %q: %d tiers (want at most %d)", ss.Name, len(ss.Tiers), len(factors))
		}
		prev := -1
		for _, p := range ss.Raw {
			if p.Window <= prev || p.Window > st.LastWindow {
				return fmt.Errorf("tsdb: series %q: raw window %d after %d (last window %d)", ss.Name, p.Window, prev, st.LastWindow)
			}
			prev = p.Window
		}
		for i, ts := range ss.Tiers {
			if ts.Factor != factors[i] {
				return fmt.Errorf("tsdb: series %q: tier %d has factor %d (want %d)", ss.Name, i, ts.Factor, factors[i])
			}
			prev := -1
			for _, b := range ts.Buckets {
				if b.Window <= prev || b.Window%ts.Factor != 0 || b.Window > st.LastWindow {
					return fmt.Errorf("tsdb: series %q: %dx bucket %d after %d (last window %d)", ss.Name, ts.Factor, b.Window, prev, st.LastWindow)
				}
				prev = b.Window
			}
		}
	}
	return nil
}

// FromState builds a store holding a captured State —
// the checkpoint reader's path (mistral-explain -series).
func FromState(st *State) (*Store, error) {
	s := New(Options{})
	if err := s.Restore(st); err != nil {
		return nil, err
	}
	return s, nil
}

// QuerySeries is one series' slice of a /v1/query response: raw points at
// step 1, downsampled buckets (with their means materialized) otherwise.
type QuerySeries struct {
	Name   string     `json:"name"`
	Class  string     `json:"class"`
	Points []Sample   `json:"points,omitempty"`
	Aggs   []AggPoint `json:"aggs,omitempty"`
}

// AggPoint is one downsampled bucket in query-response form.
type AggPoint struct {
	Window int     `json:"w"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Count  int     `json:"n"`
}

// QueryResponse is the /v1/query document. It carries no wall-clock or
// store-global fields, so the same query over the same windows renders
// byte-identically — the CI contract across a checkpoint/restore cycle.
type QueryResponse struct {
	Schema string        `json:"schema"`
	From   int           `json:"from"`
	To     int           `json:"to"`
	Step   int           `json:"step"`
	Series []QuerySeries `json:"series"`
}

// ListResponse is the /v1/query document served without a series
// parameter: the store's catalog.
type ListResponse struct {
	Schema     string    `json:"schema"`
	LastWindow int       `json:"last_window"`
	Steps      []int     `json:"steps"`
	Series     []Summary `json:"series"`
}

// Query answers one range query over several series. step 1 returns raw
// samples; a configured factor returns that tier's buckets; step 0 picks
// the finest resolution whose retention still covers from. to < 0 means
// "through the latest appended window".
func (s *Store) Query(names []string, from, to, step int) (*QueryResponse, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: history disabled")
	}
	if from < 0 {
		from = 0
	}
	if to < 0 {
		to = s.LastWindow()
	}
	if step == 0 {
		step = s.autoStep(from)
	}
	resp := &QueryResponse{Schema: Schema, From: from, To: to, Step: step}
	for _, name := range names {
		s.mu.RLock()
		se := s.series[name]
		s.mu.RUnlock()
		if se == nil {
			return nil, fmt.Errorf("tsdb: unknown series %q", name)
		}
		qs := QuerySeries{Name: name, Class: se.class.String()}
		if step == 1 {
			qs.Points = s.Range(name, from, to)
		} else {
			aggs, err := s.RangeAgg(name, from-from%step, to, step)
			if err != nil {
				return nil, err
			}
			qs.Aggs = make([]AggPoint, 0, len(aggs))
			for _, a := range aggs {
				qs.Aggs = append(qs.Aggs, AggPoint{
					Window: a.Window, Mean: a.Mean(), Min: a.Min, Max: a.Max, Count: a.Count,
				})
			}
		}
		resp.Series = append(resp.Series, qs)
	}
	return resp, nil
}

// autoStep picks the finest resolution whose retention reaches back to
// the requested start window.
func (s *Store) autoStep(from int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.last < 0 {
		return 1
	}
	if s.last-rawWindows < from {
		return 1
	}
	for _, f := range factors {
		if s.last-f*aggBuckets < from {
			return f
		}
	}
	return factors[len(factors)-1]
}

// Handler serves the trend-query API:
//
//	GET /v1/query                                  → series catalog
//	GET /v1/query?series=a,b&from=N&to=N&step=N    → range query
//	GET /v1/query?series=a&k=N                     → latest-k raw samples
//
// Works on a nil store (serves an empty catalog), so the route can always
// be mounted.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeErr := func(status int, msg string) {
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": msg})
		}
		w.Header().Set("Content-Type", "application/json")
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeErr(http.StatusMethodNotAllowed, "GET required")
			return
		}
		q := r.URL.Query()
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
		names := q.Get("series")
		if names == "" {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(ListResponse{
				Schema:     Schema,
				LastWindow: s.LastWindow(),
				Steps:      s.Steps(),
				Series:     s.Summaries(0),
			})
			return
		}
		split := strings.Split(names, ",")
		if k, err := atoi("k", 0); err != nil {
			writeErr(http.StatusBadRequest, err.Error())
			return
		} else if k > 0 {
			resp := &QueryResponse{Schema: Schema, From: -1, To: s.LastWindow(), Step: 1}
			for _, name := range split {
				pts := s.LatestK(name, k)
				if pts == nil && s != nil {
					if _, known := s.hasSeries(name); !known {
						writeErr(http.StatusNotFound, fmt.Sprintf("unknown series %q", name))
						return
					}
				}
				if len(pts) > 0 && (resp.From < 0 || pts[0].Window < resp.From) {
					resp.From = pts[0].Window
				}
				resp.Series = append(resp.Series, QuerySeries{Name: name, Class: s.className(name), Points: pts})
			}
			if resp.From < 0 {
				resp.From = 0
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
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
		step, err := atoi("step", 1)
		if err != nil {
			writeErr(http.StatusBadRequest, err.Error())
			return
		}
		resp, err := s.Query(split, from, to, step)
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "unknown series") {
				status = http.StatusNotFound
			}
			writeErr(status, err.Error())
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}

// hasSeries reports whether the named series exists.
func (s *Store) hasSeries(name string) (*series, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	se, ok := s.series[name]
	return se, ok
}

// className returns the named series' class string ("" when absent).
func (s *Store) className(name string) string {
	se, ok := s.hasSeries(name)
	if !ok {
		return ""
	}
	return se.class.String()
}
