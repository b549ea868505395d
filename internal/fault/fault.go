// Package fault is the deterministic fault-injection plane: a seeded
// Injector that decides, reproducibly, which adaptation actions fail or
// stall, which hosts crash, and which measurement windows arrive late or
// extra-noisy. The paper's testbed executes every plan infallibly; real Xen
// clusters abort migrations, hang power-ons, and drop sensor samples, and a
// controller that "dynamically manages adaptation cost" must survive the
// adaptations it pays for.
//
// Design constraints, in order:
//
//   - Strictly opt-in: New returns nil when every rate is zero, and every
//     method is a nil-receiver-safe no-op that makes zero RNG draws, so a
//     run without faults is byte-identical to one built before this package
//     existed.
//   - Deterministic: all draws come from seeded PCG streams (one per
//     subsystem, derived via Split so draws in one never perturb another)
//     and are serialized under a mutex, so identical seeds yield identical
//     fault schedules, under -race too.
//   - Observable: injections surface as fault_* counters and as Counts()
//     for tests.
package fault

import (
	"math"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/sim"
)

// Options configures an Injector. The zero value disables everything.
type Options struct {
	// Seed drives every fault draw. Identical seeds reproduce identical
	// fault schedules (given identical query sequences).
	Seed uint64
	// ActionFailRate is the probability that an adaptation action fails
	// mid-flight (migration abort, VM start failure, stuck cap change).
	ActionFailRate float64
	// FailRateByKind overrides ActionFailRate per action kind (e.g. power-on
	// hangs more often than CPU-cap changes).
	FailRateByKind map[cluster.ActionKind]float64
	// RetryableFraction is the share of injected action failures that are
	// transient — worth retrying — rather than permanent (default 0.7;
	// negative for none).
	RetryableFraction float64
	// DelayRate is the probability that a (successful) action takes longer
	// than the cost tables predict.
	DelayRate float64
	// DelayMaxMult bounds the transient-delay multiplier: a delayed action's
	// duration is scaled by a uniform draw in [1, DelayMaxMult] (default 3).
	DelayMaxMult float64
	// HostCrashPerHour is the per-host crash rate (Poisson, so the per-window
	// probability is 1−exp(−rate·hours)).
	HostCrashPerHour float64
	// SensorDropRate is the probability that a measurement window's sensor
	// data is dropped (the previous window's values are reported instead).
	SensorDropRate float64
	// SensorNoise is the relative stddev of extra measurement noise layered
	// on top of the testbed's calibrated noise.
	SensorNoise float64
	// Obs overrides the process-default observer for fault counters; nil
	// resolves the default.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	switch {
	case o.RetryableFraction == 0:
		o.RetryableFraction = 0.7
	case o.RetryableFraction < 0:
		o.RetryableFraction = 0
	}
	if o.DelayMaxMult < 1 {
		o.DelayMaxMult = 3
	}
	return o
}

// Enabled reports whether any fault class has a positive rate.
func (o Options) Enabled() bool {
	if o.ActionFailRate > 0 || o.DelayRate > 0 || o.HostCrashPerHour > 0 ||
		o.SensorDropRate > 0 || o.SensorNoise > 0 {
		return true
	}
	for _, p := range o.FailRateByKind {
		if p > 0 {
			return true
		}
	}
	return false
}

// Profile returns the standard fault mix used by the -fault-rate flags and
// the fault-sweep experiment, scaled from a single headline rate p (the
// action failure probability): delays at p/2, sensor drops at p/4, extra
// sensor noise at p/10 relative stddev, and host crashes at p/10 per hour.
func Profile(rate float64, seed uint64) Options {
	if rate <= 0 {
		return Options{Seed: seed}
	}
	return Options{
		Seed:             seed,
		ActionFailRate:   rate,
		DelayRate:        rate / 2,
		SensorDropRate:   rate / 4,
		SensorNoise:      rate / 10,
		HostCrashPerHour: rate / 10,
	}
}

// ChaosProfile is Profile turned hostile: every fault class is active at
// once — delays as likely as failures, crashes at half the headline rate —
// and most injected failures are terminal (RetryableFraction 0.4), the
// regime the rollback execution policy and the admission guard exist for.
func ChaosProfile(rate float64, seed uint64) Options {
	if rate <= 0 {
		return Options{Seed: seed}
	}
	return Options{
		Seed:              seed,
		ActionFailRate:    rate,
		DelayRate:         rate,
		SensorDropRate:    rate / 4,
		SensorNoise:       rate / 10,
		HostCrashPerHour:  rate / 2,
		RetryableFraction: 0.4,
	}
}

// Counts is a snapshot of everything the injector has injected.
type Counts struct {
	Injected       int64 // total fault events of any class
	ActionsFailed  int64
	ActionsDelayed int64
	HostCrashes    int64
	SensorDrops    int64
}

// Injector draws fault events from seeded streams. A nil *Injector is valid
// and injects nothing — the strictly-opt-in fast path.
type Injector struct {
	opts Options

	mu      sync.Mutex
	actions *sim.RNG // action failure/delay draws
	hosts   *sim.RNG // host-crash draws
	sensors *sim.RNG // sensor drop/noise draws
	counts  Counts

	cInjected *obs.Counter
	cFailed   *obs.Counter
	cDelayed  *obs.Counter
	cCrashes  *obs.Counter
	cDrops    *obs.Counter
}

// New builds an injector, or returns nil when the options enable nothing —
// callers hold a nil *Injector and every method no-ops.
func New(opts Options) *Injector {
	if !opts.Enabled() {
		return nil
	}
	opts = opts.withDefaults()
	// One parent stream, split per subsystem: adding draws in one subsystem
	// (say, more actions failing) must not perturb another's schedule.
	parent := sim.NewRNG(opts.Seed, 0xfa017)
	in := &Injector{
		opts:    opts,
		actions: parent.Split(),
		hosts:   parent.Split(),
		sensors: parent.Split(),
	}
	o := obs.Resolve(opts.Obs)
	in.cInjected = o.Counter("fault_injected_total")
	in.cFailed = o.Counter("fault_actions_failed_total")
	in.cDelayed = o.Counter("fault_actions_delayed_total")
	in.cCrashes = o.Counter("fault_host_crashes_total")
	in.cDrops = o.Counter("fault_sensor_drops_total")
	return in
}

// Enabled reports whether the injector injects anything.
func (in *Injector) Enabled() bool { return in != nil }

// Counts returns a snapshot of injected-event totals.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// State is an Injector's complete mutable state in serializable form: the
// positions of the three fault streams and the injected-event totals.
// Options are not included — state is restored into an injector freshly
// built with the same options.
type State struct {
	Actions []byte `json:"actions"`
	Hosts   []byte `json:"hosts"`
	Sensors []byte `json:"sensors"`
	Counts  Counts `json:"counts"`
}

// Snapshot captures the injector's state; a nil injector yields a nil
// state pointer (nothing to persist).
func (in *Injector) Snapshot() (*State, error) {
	if in == nil {
		return nil, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var s State
	var err error
	if s.Actions, err = in.actions.Snapshot(); err != nil {
		return nil, err
	}
	if s.Hosts, err = in.hosts.Snapshot(); err != nil {
		return nil, err
	}
	if s.Sensors, err = in.sensors.Snapshot(); err != nil {
		return nil, err
	}
	s.Counts = in.counts
	return &s, nil
}

// Restore rewinds the injector's streams and totals to a captured state. A
// nil state is a no-op (matching the nil snapshot of a nil injector);
// restoring into a nil injector with a non-nil state is an error caught by
// the caller's configuration mismatch, so it just no-ops here too.
func (in *Injector) Restore(s *State) error {
	if in == nil || s == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.actions.Restore(s.Actions); err != nil {
		return err
	}
	if err := in.hosts.Restore(s.Hosts); err != nil {
		return err
	}
	if err := in.sensors.Restore(s.Sensors); err != nil {
		return err
	}
	in.counts = s.Counts
	return nil
}

func (in *Injector) failRate(kind cluster.ActionKind) float64 {
	if p, ok := in.opts.FailRateByKind[kind]; ok {
		return p
	}
	return in.opts.ActionFailRate
}

// ActionFault is the injector's verdict on one adaptation action.
type ActionFault struct {
	// Fail aborts the action: the configuration change does not happen, but
	// SunkFraction of the (possibly delayed) duration is still consumed and
	// its transient costs charged — a migration that dies at 80% has already
	// copied 80% of the pages.
	Fail bool
	// SunkFraction is the fraction of the duration elapsed before the abort,
	// in [0.1, 0.9].
	SunkFraction float64
	// Retryable marks a transient failure worth re-attempting.
	Retryable bool
	// DelayMult scales the action's duration (1 = on time; up to
	// Options.DelayMaxMult). Failures are also subject to it: a stalled
	// migration takes longer to die.
	DelayMult float64
}

// Action draws the fate of one adaptation action. Call order must be
// deterministic (the testbed serializes plan steps), and the injector
// serializes the underlying stream, so fault schedules are reproducible.
func (in *Injector) Action(kind cluster.ActionKind) ActionFault {
	f := ActionFault{DelayMult: 1}
	if in == nil {
		return f
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if p := in.opts.DelayRate; p > 0 && in.actions.Float64() < p {
		f.DelayMult = 1 + (in.opts.DelayMaxMult-1)*in.actions.Float64()
		in.counts.Injected++
		in.counts.ActionsDelayed++
		in.cInjected.Inc()
		in.cDelayed.Inc()
	}
	if p := in.failRate(kind); p > 0 && in.actions.Float64() < p {
		f.Fail = true
		f.SunkFraction = 0.1 + 0.8*in.actions.Float64()
		f.Retryable = in.opts.RetryableFraction > 0 && in.actions.Float64() < in.opts.RetryableFraction
		in.counts.Injected++
		in.counts.ActionsFailed++
		in.cInjected.Inc()
		in.cFailed.Inc()
	}
	return f
}

// HostCrashes draws which of the given hosts crash during a window of the
// given length. Pass hosts in sorted order (cluster.Config.ActiveHosts is)
// so per-host draws are reproducible.
func (in *Injector) HostCrashes(hosts []string, window time.Duration) []string {
	if in == nil || in.opts.HostCrashPerHour <= 0 || window <= 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := 1 - math.Exp(-in.opts.HostCrashPerHour*window.Hours())
	var crashed []string
	for _, h := range hosts {
		if in.hosts.Float64() < p {
			crashed = append(crashed, h)
			in.counts.Injected++
			in.counts.HostCrashes++
			in.cInjected.Inc()
			in.cCrashes.Inc()
		}
	}
	return crashed
}

// SensorFault is the injector's verdict on one measurement window.
type SensorFault struct {
	// Drop replaces the window's RT/power measurements with the previous
	// window's (a stale sensor read); the very first window cannot drop.
	Drop bool
}

// Sensor draws the fate of one measurement window. One draw per window.
func (in *Injector) Sensor() SensorFault {
	if in == nil {
		return SensorFault{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if p := in.opts.SensorDropRate; p > 0 && in.sensors.Float64() < p {
		in.counts.Injected++
		in.counts.SensorDrops++
		in.cInjected.Inc()
		in.cDrops.Inc()
		return SensorFault{Drop: true}
	}
	return SensorFault{}
}

// SensorJitter perturbs a measurement with the injector's extra noise
// (multiplicative normal, relative stddev Options.SensorNoise). It draws
// from the sensor stream; callers must visit measurements in a
// deterministic order.
func (in *Injector) SensorJitter(v float64) float64 {
	if in == nil || in.opts.SensorNoise <= 0 {
		return v
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sensors.Jitter(v, in.opts.SensorNoise)
}
