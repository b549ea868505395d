// Package guard is the admission layer between the controller's Decide and
// the testbed's Execute: a set of safety invariants every proposed plan
// must satisfy before it touches the cluster, plus a circuit breaker that
// freezes adaptation entirely after a run of degraded windows. The paper's
// premise is that adaptation has real costs (§IV); the guard's premise is
// that a misbehaving controller — or a controller planning against a stale
// view after a crash — must not be allowed to spend them.
//
// A nil *Guard is a valid disabled guard: every Admit allows, every
// ObserveWindow is a no-op, and no state is kept, so callers thread it
// unconditionally exactly like a nil fault.Injector or obs.Observer.
package guard

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
)

// The admission invariants and the circuit breaker's thresholds.
const (
	// maxMigrationsPerWindow caps live migrations (LAN + WAN) a single plan
	// may schedule. Each copy saturates Dom-0 shares on two hosts, so a
	// plan of many back-to-back moves is a self-inflicted SLO violation.
	maxMigrationsPerWindow = 4
	// powerCycleCooldown is the minimum virtual time between power-state
	// changes of the same host. Rapid on/off cycling burns the ~305 s boot
	// transient for nothing and is the classic oscillation failure of
	// threshold controllers.
	powerCycleCooldown = 10 * time.Minute
	// minReplicas is the floor of active replicas every required tier must
	// keep after the plan lands. Staging and target validation already
	// refuse a plan that empties a required tier, so this rule is their
	// backstop.
	minReplicas = 1
	// breakerThreshold is K, the number of consecutive degraded windows
	// that opens the breaker.
	breakerThreshold = 4
	// breakerCooldown is how many windows the breaker stays open before
	// admitting a single probe plan half-open.
	breakerCooldown = 8
)

// Config wires a guard to its observer.
type Config struct {
	// Obs overrides the process-default observer for guard metrics.
	Obs *obs.Observer
}

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: adaptation flows normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: every plan is rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe plan is admitted; a clean window closes
	// the breaker, another degraded window re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

func breakerFromString(s string) (BreakerState, error) {
	switch s {
	case "closed":
		return BreakerClosed, nil
	case "open":
		return BreakerOpen, nil
	case "half-open":
		return BreakerHalfOpen, nil
	}
	return 0, fmt.Errorf("guard: unknown breaker state %q", s)
}

// Verdict is the outcome of one admission check.
type Verdict struct {
	Allowed bool
	// Rule names the invariant that rejected the plan ("" when allowed):
	// "invalid-plan", "target-invalid", "migration-cap",
	// "power-cycle-cooldown", "min-replica-floor", "breaker-open".
	Rule string
	// Reason is the human-readable explanation.
	Reason string
	// Breaker is the breaker state at decision time.
	Breaker BreakerState
}

// Guard holds the admission state. The control loop drives it
// single-threaded; the mutex keeps Snapshot and metric reads clean if
// taken concurrently.
type Guard struct {
	mu  sync.Mutex
	cat *cluster.Catalog

	breaker      BreakerState
	consecDegr   int // consecutive degraded windows while closed
	cooldownLeft int // open windows remaining before half-open
	// lastCycle records the most recent power-state change per host so
	// the cooldown rule has a clock to compare against. A guard starts
	// with no history: the first cycle of each host is always admitted.
	lastCycle map[string]time.Duration
	opens     int64 // times the breaker tripped open
	admitted  int64
	rejected  int64

	cAdmitted *obs.Counter
	cRejected *obs.Counter
	cByRule   map[string]*obs.Counter
	cOpens    *obs.Counter
	gBreaker  *obs.Gauge
	obsv      *obs.Observer
}

// New builds a guard over the given catalog. The catalog is needed to
// validate target configurations and resolve required tiers.
func New(cfg Config, cat *cluster.Catalog) *Guard {
	g := &Guard{
		cat:       cat,
		lastCycle: make(map[string]time.Duration),
	}
	o := obs.Resolve(cfg.Obs)
	g.obsv = o
	g.cAdmitted = o.Counter("guard_admitted_total")
	g.cRejected = o.Counter("guard_rejected_total")
	g.cOpens = o.Counter("guard_breaker_open_total")
	g.gBreaker = o.Gauge("guard_breaker_state")
	if g.cRejected != nil {
		g.cByRule = make(map[string]*obs.Counter)
	}
	return g
}

// Enabled reports whether the guard is active; false for nil.
func (g *Guard) Enabled() bool { return g != nil }

// Breaker returns the current breaker state (BreakerClosed for nil).
func (g *Guard) Breaker() BreakerState {
	if g == nil {
		return BreakerClosed
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.breaker
}

// Stats reports lifetime admission counts and breaker trips.
func (g *Guard) Stats() (admitted, rejected, opens int64) {
	if g == nil {
		return 0, 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted, g.rejected, g.opens
}

// Admit checks a proposed plan against every invariant and, when the plan
// passes, commits its power-cycle history so the cooldown rule sees it.
// cfg must be the configuration the plan will execute against (the
// testbed's scheduled final configuration); now is the virtual time of the
// admission. A nil guard admits everything.
func (g *Guard) Admit(now time.Duration, cfg cluster.Config, plan []cluster.Action) Verdict {
	if g == nil {
		return Verdict{Allowed: true}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.admitLocked(now, cfg, plan)
	if v.Allowed {
		g.admitted++
		g.cAdmitted.Inc()
	} else {
		g.rejected++
		g.cRejected.Inc()
		if g.cByRule != nil {
			c := g.cByRule[v.Rule]
			if c == nil {
				c = g.obsv.Counter("guard_rejected_" + ruleSlug(v.Rule) + "_total")
				g.cByRule[v.Rule] = c
			}
			c.Inc()
		}
	}
	return v
}

func ruleSlug(rule string) string {
	b := []byte(rule)
	for i, c := range b {
		if c == '-' {
			b[i] = '_'
		}
	}
	return string(b)
}

func (g *Guard) admitLocked(now time.Duration, cfg cluster.Config, plan []cluster.Action) Verdict {
	v := Verdict{Breaker: g.breaker}
	if g.breaker == BreakerOpen {
		v.Rule = "breaker-open"
		v.Reason = fmt.Sprintf("circuit breaker open for %d more window(s) after %d consecutive degraded windows", g.cooldownLeft, breakerThreshold)
		return v
	}
	// Target validity: the plan must stage cleanly from the current
	// configuration and the configuration it lands on must satisfy every
	// allocation constraint. This catches plans computed against a stale
	// view — e.g. a decision already in flight when a host crashed.
	final, filled, err := cluster.ApplyAll(g.cat, cfg, plan)
	if err != nil {
		v.Rule = "invalid-plan"
		v.Reason = err.Error()
		return v
	}
	if vs := final.Validate(g.cat); len(vs) > 0 {
		v.Rule = "target-invalid"
		v.Reason = fmt.Sprintf("target config violates %d constraint(s): %v", len(vs), vs[0])
		return v
	}
	migs := 0
	for _, a := range filled {
		if a.Kind == cluster.ActionMigrate || a.Kind == cluster.ActionWANMigrate {
			migs++
		}
	}
	if migs > maxMigrationsPerWindow {
		v.Rule = "migration-cap"
		v.Reason = fmt.Sprintf("plan schedules %d migrations, cap is %d per window", migs, maxMigrationsPerWindow)
		return v
	}
	var cycles []string
	for _, a := range filled {
		if a.Kind != cluster.ActionStartHost && a.Kind != cluster.ActionStopHost {
			continue
		}
		if last, ok := g.lastCycle[a.Host]; ok && now-last < powerCycleCooldown {
			v.Rule = "power-cycle-cooldown"
			v.Reason = fmt.Sprintf("host %s power-cycled %v ago, cooldown is %v", a.Host, now-last, powerCycleCooldown)
			return v
		}
		cycles = append(cycles, a.Host)
	}
	for _, k := range g.cat.Tiers() {
		if !g.cat.TierRequired(k) {
			continue
		}
		if n := len(final.ActiveReplicas(g.cat, k)); n < minReplicas {
			v.Rule = "min-replica-floor"
			v.Reason = fmt.Sprintf("tier %s/%s would keep %d active replica(s), floor is %d", k.App, k.Tier, n, minReplicas)
			return v
		}
	}
	// Admitted: commit the power-cycle history now — the caller executes
	// the plan immediately after a positive verdict.
	for _, h := range cycles {
		g.lastCycle[h] = now
	}
	v.Allowed = true
	return v
}

// ObserveWindow feeds one finished monitoring window's health into the
// circuit breaker. Call it exactly once per window, after degraded status
// is known.
func (g *Guard) ObserveWindow(degraded bool) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.breaker {
	case BreakerClosed:
		if degraded {
			g.consecDegr++
			if g.consecDegr >= breakerThreshold {
				g.openLocked()
			}
		} else {
			g.consecDegr = 0
		}
	case BreakerOpen:
		g.cooldownLeft--
		if g.cooldownLeft <= 0 {
			g.breaker = BreakerHalfOpen
			g.publishBreaker()
		}
	case BreakerHalfOpen:
		if degraded {
			g.openLocked()
		} else {
			g.breaker = BreakerClosed
			g.consecDegr = 0
			g.publishBreaker()
		}
	}
}

func (g *Guard) openLocked() {
	g.breaker = BreakerOpen
	g.cooldownLeft = breakerCooldown
	g.consecDegr = 0
	g.opens++
	g.cOpens.Inc()
	g.publishBreaker()
}

func (g *Guard) publishBreaker() { g.gBreaker.Set(float64(g.breaker)) }

// State is the guard's mutable state in serializable form, for the
// scenario checkpoint plane.
type State struct {
	Breaker      string `json:"breaker"`
	ConsecDegr   int    `json:"consec_degraded,omitempty"`
	CooldownLeft int    `json:"cooldown_left,omitempty"`
	// LastCycle marshals as int64 nanoseconds per host.
	LastCycle map[string]time.Duration `json:"last_cycle_ns,omitempty"`
	Opens     int64                    `json:"opens,omitempty"`
	Admitted  int64                    `json:"admitted,omitempty"`
	Rejected  int64                    `json:"rejected,omitempty"`
}

// Snapshot captures the guard's mutable state.
func (g *Guard) Snapshot() *State {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return &State{
		Breaker:      g.breaker.String(),
		ConsecDegr:   g.consecDegr,
		CooldownLeft: g.cooldownLeft,
		LastCycle:    maps.Clone(g.lastCycle),
		Opens:        g.opens,
		Admitted:     g.admitted,
		Rejected:     g.rejected,
	}
}

// Restore overwrites the guard's mutable state with a captured one.
func (g *Guard) Restore(s *State) error {
	if g == nil {
		return fmt.Errorf("guard: restore into a nil guard")
	}
	if s == nil {
		return fmt.Errorf("guard: nil snapshot")
	}
	b, err := breakerFromString(s.Breaker)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.breaker = b
	g.consecDegr = s.ConsecDegr
	g.cooldownLeft = s.CooldownLeft
	g.opens = s.Opens
	g.admitted = s.Admitted
	g.rejected = s.Rejected
	g.lastCycle = make(map[string]time.Duration, len(s.LastCycle))
	maps.Copy(g.lastCycle, s.LastCycle)
	g.publishBreaker()
	return nil
}
