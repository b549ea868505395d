// Package cost implements the transient adaptation-cost model of §III-C.
// Each of the six adaptation actions has, per workload level, a measured
// duration, response-time deltas for the adapted application and for
// applications co-located with it, and a power delta on the affected hosts.
// Costs are stored in tables indexed by workload (concurrent sessions) and
// looked up by nearest workload at runtime, exactly as the paper does.
//
// Tables come from two sources: PaperTable reproduces the published
// measurements (Fig. 7 shapes plus the host power-cycling constants), and
// the testbed package can regenerate a table by running the paper's offline
// measurement campaign against the request-level simulator.
package cost

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// Key identifies a cost-table row family: the action kind plus, where it
// matters (migrations and replica changes), the tier of the affected VM.
type Key struct {
	Kind cluster.ActionKind
	Tier string
}

// String renders the key for diagnostics.
func (k Key) String() string {
	if k.Tier == "" {
		return k.Kind.String()
	}
	return fmt.Sprintf("%s(%s)", k.Kind, k.Tier)
}

// Entry is one measured cost point.
type Entry struct {
	// Sessions is the workload index (concurrent sessions on the affected
	// application).
	Sessions float64
	// Duration is the measured length of the action, d(a).
	Duration time.Duration
	// DeltaRTTargetSec is the response-time increase of the application
	// being adapted while the action runs (seconds).
	DeltaRTTargetSec float64
	// DeltaRTColocatedSec is the response-time increase of applications
	// co-located on the affected hosts (seconds).
	DeltaRTColocatedSec float64
	// DeltaWatts is the power increase on the affected hosts while the
	// action runs.
	DeltaWatts float64
}

// Table holds cost entries grouped by key, sorted by workload.
type Table struct {
	entries map[Key][]Entry
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[Key][]Entry)}
}

// Add inserts an entry, keeping the key's entries sorted by Sessions.
func (t *Table) Add(k Key, e Entry) {
	es := append(t.entries[k], e)
	sort.Slice(es, func(i, j int) bool { return es[i].Sessions < es[j].Sessions })
	t.entries[k] = es
}

// Keys returns all keys in deterministic order.
func (t *Table) Keys() []Key {
	keys := make([]Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].Tier < keys[j].Tier
	})
	return keys
}

// Entries returns the sorted entries for a key. The slice is shared;
// callers must not mutate it.
func (t *Table) Entries(k Key) []Entry { return t.entries[k] }

// Lookup returns the entry whose workload is closest to sessions, as the
// paper's Cost Manager does. The second result reports whether the key has
// any entries; a tier-specific miss falls back to the tierless key.
func (t *Table) Lookup(k Key, sessions float64) (Entry, bool) {
	return nearest(t.rows(k), sessions)
}

// rows returns the entries a key is looked up in: its own, or the tierless
// key's when the table has none for the tier.
func (t *Table) rows(k Key) []Entry {
	es := t.entries[k]
	if len(es) == 0 && k.Tier != "" {
		es = t.entries[Key{Kind: k.Kind}]
	}
	return es
}

// nearest returns the entry whose workload is closest to sessions (the
// first of equally close ones).
func nearest(es []Entry, sessions float64) (Entry, bool) {
	if len(es) == 0 {
		return Entry{}, false
	}
	best := es[0]
	bestDist := math.Abs(es[0].Sessions - sessions)
	for _, e := range es[1:] {
		if d := math.Abs(e.Sessions - sessions); d < bestDist {
			best, bestDist = e, d
		}
	}
	return best, true
}

// PaperTable builds the cost tables the paper measured offline (Fig. 7 for
// migrations and replica changes, §V-B for host power cycling, and
// §IV's description of CPU tuning as the quickest, cheapest action). The
// shapes — costs growing superlinearly with the number of concurrent
// sessions, MySQL migrations costlier than Tomcat costlier than Apache —
// match the published curves; magnitudes are anchored to the figures'
// axes (8–17% power delta over a ≈160 W two-host baseline, up to ≈800 ms
// response-time delta, 10–80 s durations at 100–800 sessions).
func PaperTable() *Table {
	t := NewTable()
	const baselineWatts = 160.0

	type shape struct {
		key        Key
		wattPctLo  float64 // delta watts % at 100 sessions
		wattPctHi  float64 // delta watts % at 800 sessions
		rtLoMS     float64
		rtHiMS     float64
		durLoSec   float64
		durHiSec   float64
		coLocFrac  float64 // co-located ΔRT as a fraction of target ΔRT
		rtExponent float64
	}
	shapes := []shape{
		{Key{cluster.ActionMigrate, "db"}, 10.0, 17.0, 60, 800, 12, 78, 0.45, 1.8},
		{Key{cluster.ActionMigrate, "app"}, 9.0, 14.5, 45, 520, 9, 55, 0.40, 1.8},
		{Key{cluster.ActionMigrate, "web"}, 8.0, 12.5, 30, 320, 7, 38, 0.35, 1.8},
		{Key{cluster.ActionAddReplica, "db"}, 9.5, 15.5, 40, 430, 14, 70, 0.35, 1.6},
		{Key{cluster.ActionAddReplica, "app"}, 8.5, 13.0, 30, 300, 10, 50, 0.30, 1.6},
		{Key{cluster.ActionRemoveReplica, "db"}, 8.5, 13.5, 25, 260, 10, 55, 0.25, 1.5},
		{Key{cluster.ActionRemoveReplica, "app"}, 8.0, 12.0, 20, 200, 8, 42, 0.22, 1.5},
	}
	for _, sh := range shapes {
		for s := 100.0; s <= 800; s += 100 {
			x := (s - 100) / 700 // 0..1 across the sweep
			wattPct := sh.wattPctLo + (sh.wattPctHi-sh.wattPctLo)*x
			rtMS := sh.rtLoMS + (sh.rtHiMS-sh.rtLoMS)*math.Pow(x, sh.rtExponent)
			durSec := sh.durLoSec + (sh.durHiSec-sh.durLoSec)*math.Pow(x, 1.3)
			t.Add(sh.key, Entry{
				Sessions:            s,
				Duration:            time.Duration(durSec * float64(time.Second)),
				DeltaRTTargetSec:    rtMS / 1000,
				DeltaRTColocatedSec: rtMS / 1000 * sh.coLocFrac,
				DeltaWatts:          wattPct / 100 * baselineWatts,
			})
		}
	}

	// CPU capacity tuning: milliseconds-scale hypervisor call; the paper
	// treats it as the quickest, near-free action.
	for _, kind := range []cluster.ActionKind{cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU} {
		for s := 100.0; s <= 800; s += 100 {
			t.Add(Key{Kind: kind}, Entry{
				Sessions:            s,
				Duration:            time.Second,
				DeltaRTTargetSec:    0.004 + 0.004*s/800,
				DeltaRTColocatedSec: 0,
				DeltaWatts:          0.5,
			})
		}
	}

	// WAN migration (§VI extension): memory plus disk image over a
	// wide-area link at a fraction of LAN bandwidth — tens of minutes, a
	// sustained response-time hit on the migrated application, and NIC
	// power at both ends. Costs again grow with workload (page dirtying
	// extends pre-copy rounds over the slow link).
	wanShapes := []struct {
		tier               string
		rtLoMS, rtHiMS     float64
		durLoMin, durHiMin float64
		wattLo, wattHi     float64
	}{
		{"db", 150, 1200, 12, 35, 14, 24},
		{"app", 110, 800, 10, 28, 12, 20},
		{"web", 80, 500, 8, 22, 10, 17},
	}
	for _, sh := range wanShapes {
		for s := 100.0; s <= 800; s += 100 {
			x := (s - 100) / 700
			t.Add(Key{Kind: cluster.ActionWANMigrate, Tier: sh.tier}, Entry{
				Sessions:            s,
				Duration:            time.Duration((sh.durLoMin + (sh.durHiMin-sh.durLoMin)*math.Pow(x, 1.3)) * float64(time.Minute)),
				DeltaRTTargetSec:    (sh.rtLoMS + (sh.rtHiMS-sh.rtLoMS)*math.Pow(x, 1.8)) / 1000,
				DeltaRTColocatedSec: (sh.rtLoMS + (sh.rtHiMS-sh.rtLoMS)*math.Pow(x, 1.8)) / 1000 * 0.3,
				DeltaWatts:          sh.wattLo + (sh.wattHi-sh.wattLo)*x,
			})
		}
	}

	// DVFS transitions (§VI extension): microsecond-scale voltage ramps,
	// charged as a 100 ms action with no measurable deltas.
	t.Add(Key{Kind: cluster.ActionSetDVFS}, Entry{
		Sessions: 0, Duration: 100 * time.Millisecond,
	})

	// Host power cycling (§V-B): start ≈90 s at ≈80 W, stop ≈30 s at
	// ≈20 W; response times on other machines are unaffected.
	t.Add(Key{Kind: cluster.ActionStartHost}, Entry{
		Sessions: 0, Duration: 90 * time.Second, DeltaWatts: 80,
	})
	t.Add(Key{Kind: cluster.ActionStopHost}, Entry{
		Sessions: 0, Duration: 30 * time.Second, DeltaWatts: 20,
	})
	return t
}

// tierKeyed reports whether the kind's cost rows are measured per tier of
// the affected VM.
func tierKeyed(k cluster.ActionKind) bool {
	switch k {
	case cluster.ActionMigrate, cluster.ActionWANMigrate, cluster.ActionAddReplica, cluster.ActionRemoveReplica:
		return true
	}
	return false
}

// KeyFor derives the table key for an action, resolving the affected VM's
// tier through the catalog.
func KeyFor(cat *cluster.Catalog, a cluster.Action) Key {
	if tierKeyed(a.Kind) {
		if vm, ok := cat.VM(a.VM); ok {
			return Key{Kind: a.Kind, Tier: vm.Tier}
		}
	}
	return Key{Kind: a.Kind}
}

// numKinds bounds the action kinds the manager resolves rows for.
const numKinds = int(cluster.ActionWANMigrate) + 1

// Manager is the paper's Cost Manager: it predicts the transient cost of an
// action given the current workload. The table is read when the manager is
// built; entries added to it afterwards are not seen.
type Manager struct {
	cat   *cluster.Catalog
	table *Table
	// SessionsPerReqSec converts request rates to the session index of the
	// cost tables.
	sessionsPerReqSec float64

	// rows[kind][vm] is the table row family an action of that kind on the
	// vm-th catalog VM is looked up in (KeyFor plus Lookup's tierless
	// fallback, resolved once); the extra last column serves actions that
	// name no cataloged VM.
	rows [numKinds][][]Entry

	// scratch pools the view and dense deltas PredictInto loads per call.
	scratch sync.Pool
}

// predictScratch is PredictInto's per-call working state.
type predictScratch struct {
	view    cluster.View
	deltaRT []float64
}

// NewManager builds a cost manager over a table. sessionsPerReqSec converts
// request rates into the tables' session index (8 in the paper's setup).
func NewManager(cat *cluster.Catalog, table *Table, sessionsPerReqSec float64) (*Manager, error) {
	if table == nil {
		return nil, fmt.Errorf("cost: nil table")
	}
	if sessionsPerReqSec <= 0 {
		return nil, fmt.Errorf("cost: non-positive sessions-per-req factor %v", sessionsPerReqSec)
	}
	m := &Manager{cat: cat, table: table, sessionsPerReqSec: sessionsPerReqSec}
	vms := cat.VMIDs()
	for kind := range m.rows {
		k := cluster.ActionKind(kind)
		m.rows[kind] = make([][]Entry, len(vms)+1)
		for i := range m.rows[kind] {
			key := Key{Kind: k}
			if i < len(vms) && tierKeyed(k) {
				vm, _ := cat.VM(vms[i])
				key.Tier = vm.Tier
			}
			m.rows[kind][i] = table.rows(key)
		}
	}
	m.scratch.New = func() any { return new(predictScratch) }
	return m, nil
}

// Prediction is the Cost Manager's estimate for one action.
// Checkpoints carry it under these keys (Duration as int64 nanoseconds).
type Prediction struct {
	Duration time.Duration `json:"duration_ns"`
	// DeltaRTSec maps each application to its response-time increase while
	// the action runs.
	DeltaRTSec map[string]float64 `json:"delta_rt_sec,omitempty"`
	// DeltaWatts is the system power increase while the action runs.
	DeltaWatts float64 `json:"delta_watts"`
}

// Predict estimates the cost of executing action a in configuration cfg
// under the given per-application request rates. The adapted application
// suffers the target delta; applications sharing the action's source or
// destination hosts suffer the co-located delta.
func (m *Manager) Predict(cfg cluster.Config, a cluster.Action, rates map[string]float64) Prediction {
	deltaRT := make(map[string]float64)
	dur, watts := m.PredictInto(cfg, a, rates, deltaRT)
	return Prediction{Duration: dur, DeltaRTSec: deltaRT, DeltaWatts: watts}
}

// PredictInto is Predict with caller-owned scratch: deltaRT is cleared and
// refilled with the per-application response-time deltas, and the duration
// and power delta are returned directly. It loads a view of cfg for the one
// action; code that prices many actions against one configuration loads the
// view once and calls PredictView.
func (m *Manager) PredictInto(cfg cluster.Config, a cluster.Action, rates map[string]float64, deltaRT map[string]float64) (time.Duration, float64) {
	clear(deltaRT)
	sc := m.scratch.Get().(*predictScratch)
	defer m.scratch.Put(sc)
	// A configuration that does not fit the catalog is priced on the part
	// that does, as the scan over the catalog's VMs always did.
	sc.view.Load(m.cat, cfg)
	apps := m.cat.Apps()
	if cap(sc.deltaRT) < len(apps) {
		sc.deltaRT = make([]float64, len(apps))
	}
	dense := sc.deltaRT[:len(apps)]
	vm, host, from := m.cat.ActionIndices(a)
	rate := 0.0
	if vm >= 0 {
		rate = rates[apps[m.cat.VMApp(vm)]]
	}
	dur, watts, target := m.PredictView(&sc.view, a.Kind, vm, host, from, rate, dense)
	if target >= 0 {
		deltaRT[apps[target]] = dense[target]
		for app, d := range dense {
			// A co-located application is only ever charged a positive delta.
			if app != target && d > 0 {
				deltaRT[apps[app]] = d
			}
		}
	}
	return dur, watts
}

// PredictView predicts the cost of one action of the given kind against a
// loaded view, reading arrays only: PredictEntry of the entry Lookup finds.
// vm, host and from are the catalog indices of the action's VM, Host and
// FromHost (-1 for none or unknown) and targetRate the request rate of the
// VM's application. deltaRT, indexed like Catalog.Apps, is zeroed and
// refilled. target is the adapted application's index, or -1 when nothing
// was charged (no VM, or an unmeasured action — assumed instantaneous and
// free rather than blocking the search).
func (m *Manager) PredictView(v *cluster.View, kind cluster.ActionKind, vm, host, from int, targetRate float64, deltaRT []float64) (dur time.Duration, watts float64, target int) {
	entry, ok := m.Lookup(kind, vm, targetRate)
	if !ok {
		clear(deltaRT)
		return 0, 0, -1
	}
	return m.PredictEntry(v, entry, vm, host, from, deltaRT)
}

// Lookup returns the measured entry an action of the given kind on the vm-th
// catalog VM (-1: none) is charged when its application serves targetRate
// requests per second, and whether the kind has one. It depends on nothing
// else, so a caller whose rates are fixed may keep what it returns.
func (m *Manager) Lookup(kind cluster.ActionKind, vm int, targetRate float64) (Entry, bool) {
	if kind < 0 || int(kind) >= numKinds {
		return Entry{}, false
	}
	col := vm
	if vm < 0 {
		col = len(m.rows[kind]) - 1
		targetRate = 0
	}
	return nearest(m.rows[kind][col], targetRate*m.sessionsPerReqSec)
}

// PredictEntry charges an action the measured entry against a loaded view.
// deltaRT, indexed like Catalog.Apps, is zeroed and refilled: the adapted
// application suffers the target delta, and every other application with a
// VM on host, from or the VM's current host suffers the co-located delta
// (the same for all of them, so visiting order is immaterial). target is the
// adapted application's index, -1 when the action names no VM.
func (m *Manager) PredictEntry(v *cluster.View, entry Entry, vm, host, from int, deltaRT []float64) (dur time.Duration, watts float64, target int) {
	clear(deltaRT)
	if vm < 0 {
		return entry.Duration, entry.DeltaWatts, -1
	}
	target = m.cat.VMApp(vm)
	deltaRT[target] = entry.DeltaRTTargetSec
	if entry.DeltaRTColocatedSec > 0 {
		for _, h := range [3]int{host, from, int(v.VMHost[vm])} {
			if h < 0 {
				continue
			}
			for app := range deltaRT {
				if app != target && v.AppOnHost(h, app) {
					deltaRT[app] = entry.DeltaRTColocatedSec
				}
			}
		}
	}
	return entry.Duration, entry.DeltaWatts, target
}
