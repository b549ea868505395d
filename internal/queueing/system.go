package queueing

import (
	"fmt"
	"sort"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/sim"
	"github.com/mistralcloud/mistral/internal/stats"
)

// serviceCV is the coefficient of variation of service demands (log-normal),
// roughly what bursty CPU-bound servlet work exhibits.
const serviceCV = 0.8

// System is a runnable request-level simulation of a configuration.
type System struct {
	eng  *sim.Engine
	cat  *cluster.Catalog
	apps []*app.Spec

	arrivalRNG *sim.RNG
	serviceRNG *sim.RNG
	routeRNG   *sim.RNG

	vmStations map[cluster.VMID]*Station
	vmHost     map[cluster.VMID]string
	vmPct      map[cluster.VMID]float64 // the allocation last set, in percent at nominal speed
	dom0       map[string]*Station
	hostFreq   map[string]float64             // DVFS fraction of each active host
	dom0BG     map[string]float64             // background fraction of Dom-0 share
	dom0BGUse  map[string]*stats.TimeWeighted // CPU consumed by background work

	rates      map[string]float64
	closed     map[string]*closedLoop
	collectors map[string]*collector
}

// collector accumulates per-application response times within a window.
type collector struct {
	rt        stats.Welford
	rts       []float64
	completed uint64
}

// New builds a system for the given configuration. Every active VM gets a
// PS station at its allocated rate; every powered-on host gets a Dom-0
// station. The seed drives all random streams; equal seeds reproduce runs
// exactly.
func New(cat *cluster.Catalog, apps []*app.Spec, cfg cluster.Config, seed uint64) (*System, error) {
	root := sim.NewRNG(seed, 0x9e3779b97f4a7c15)
	s := &System{
		eng:        sim.NewEngine(),
		cat:        cat,
		apps:       apps,
		arrivalRNG: root.Split(),
		serviceRNG: root.Split(),
		routeRNG:   root.Split(),
		vmStations: make(map[cluster.VMID]*Station),
		vmHost:     make(map[cluster.VMID]string),
		vmPct:      make(map[cluster.VMID]float64),
		dom0:       make(map[string]*Station),
		hostFreq:   make(map[string]float64),
		dom0BG:     make(map[string]float64),
		dom0BGUse:  make(map[string]*stats.TimeWeighted),
		rates:      make(map[string]float64),
		closed:     make(map[string]*closedLoop),
		collectors: make(map[string]*collector),
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("queueing: %w", err)
		}
		s.collectors[a.Name] = &collector{}
	}
	for _, h := range cfg.ActiveHosts() {
		if _, ok := cat.Host(h); !ok {
			return nil, fmt.Errorf("queueing: config references unknown host %q", h)
		}
		s.hostFreq[h] = cfg.HostFreq(h)
		s.dom0[h] = NewStation(s.eng, s.dom0Rate(h))
		tw := &stats.TimeWeighted{}
		tw.Set(0, 0)
		s.dom0BGUse[h] = tw
	}
	for _, id := range cfg.ActiveVMs() {
		p, _ := cfg.PlacementOf(id)
		if _, ok := s.dom0[p.Host]; !ok {
			return nil, fmt.Errorf("queueing: VM %q on inactive host %q", id, p.Host)
		}
		s.vmStations[id] = NewStation(s.eng, s.vmRate(p.Host, p.CPUPct))
		s.vmHost[id] = p.Host
		s.vmPct[id] = p.CPUPct
	}
	return s, nil
}

// vmRate is the service rate of a VM allocated cpuPct percent of host at
// nominal speed: the allocation scaled by the host's DVFS frequency, as the
// LQN model scales it.
func (s *System) vmRate(host string, cpuPct float64) float64 {
	return cpuPct / 100 * s.hostFreq[host]
}

// dom0Rate is the service rate of host's Dom-0 station: its share scaled by
// the host's frequency, less what background work occupies.
func (s *System) dom0Rate(host string) float64 {
	return cluster.Dom0CPUShare * s.hostFreq[host] * (1 - s.dom0BG[host])
}

// Engine exposes the simulation engine (for scheduling custom events such
// as action transients in tests and the testbed).
func (s *System) Engine() *sim.Engine { return s.eng }

// Now returns current virtual time.
func (s *System) Now() time.Duration { return s.eng.Now() }

// SetRate sets an application's Poisson arrival rate (req/s) and starts the
// arrival stream if needed.
func (s *System) SetRate(appName string, reqPerSec float64) error {
	c, ok := s.collectors[appName]
	if !ok {
		return fmt.Errorf("queueing: unknown application %q", appName)
	}
	_ = c
	starting := s.rates[appName] <= 0 && reqPerSec > 0
	s.rates[appName] = reqPerSec
	if starting {
		s.scheduleArrival(appName)
	}
	return nil
}

// scheduleArrival draws the next interarrival for an application.
func (s *System) scheduleArrival(appName string) {
	rate := s.rates[appName]
	if rate <= 0 {
		return
	}
	gap := s.arrivalRNG.Exp(1 / rate)
	s.eng.Schedule(time.Duration(gap*float64(time.Second)), func() {
		// Rate may have dropped to zero while this arrival was in flight.
		if s.rates[appName] <= 0 {
			return
		}
		s.startRequest(appName, nil)
		s.scheduleArrival(appName)
	})
}

// closedLoop tracks a closed-loop client population for one application.
type closedLoop struct {
	target int
	active int
	think  time.Duration
}

// SetSessions switches an application to closed-loop traffic: n emulated
// user sessions that issue a request, wait for the response, think for an
// exponentially distributed time with the given mean, and repeat — the
// paper's client emulator. Raising n spawns sessions (desynchronized by an
// initial random think); lowering n retires sessions as they finish
// thinking. Closed-loop and open-loop (SetRate) traffic are mutually
// exclusive per application: SetSessions stops the Poisson stream.
func (s *System) SetSessions(appName string, n int, think time.Duration) error {
	if s.spec(appName) == nil {
		return fmt.Errorf("queueing: unknown application %q", appName)
	}
	if n < 0 || think < 0 {
		return fmt.Errorf("queueing: invalid session count %d or think time %v", n, think)
	}
	s.rates[appName] = 0 // stop open-loop arrivals
	cl := s.closed[appName]
	if cl == nil {
		cl = &closedLoop{}
		s.closed[appName] = cl
	}
	cl.target = n
	cl.think = think
	for cl.active < cl.target {
		cl.active++
		// Stagger session starts uniformly across one think time.
		delay := time.Duration(s.arrivalRNG.Float64() * float64(think))
		s.eng.Schedule(delay, func() { s.sessionCycle(appName) })
	}
	return nil
}

// sessionCycle runs one request-think iteration of a closed-loop session.
func (s *System) sessionCycle(appName string) {
	cl := s.closed[appName]
	if cl == nil || cl.active > cl.target {
		if cl != nil {
			cl.active--
		}
		return
	}
	s.startRequest(appName, func() {
		thinkFor := time.Duration(s.arrivalRNG.Exp(cl.think.Seconds()) * float64(time.Second))
		s.eng.Schedule(thinkFor, func() { s.sessionCycle(appName) })
	})
}

// spec returns the app spec by name.
func (s *System) spec(appName string) *app.Spec {
	for _, a := range s.apps {
		if a.Name == appName {
			return a
		}
	}
	return nil
}

// pickReplica chooses an active replica of a tier weighted by allocation.
// It returns false if the tier has no active replica.
func (s *System) pickReplica(a *app.Spec, tier string) (cluster.VMID, bool) {
	t, ok := a.Tier(tier)
	if !ok {
		return "", false
	}
	var ids []cluster.VMID
	var weights []float64
	var total float64
	for r := 0; r < t.MaxReplicas; r++ {
		id := a.VMIDFor(tier, r)
		if st, ok := s.vmStations[id]; ok {
			ids = append(ids, id)
			w := st.Rate()
			if w <= 0 {
				w = 1e-6 // paused VMs still receive (and queue) requests
			}
			weights = append(weights, w)
			total += w
		}
	}
	if len(ids) == 0 {
		return "", false
	}
	x := s.routeRNG.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return ids[i], true
		}
	}
	return ids[len(ids)-1], true
}

// startRequest samples a transaction and walks it through the tiers. done,
// if non-nil, runs when the request completes or is dropped (used by
// closed-loop sessions).
func (s *System) startRequest(appName string, done func()) {
	a := s.spec(appName)
	if a == nil {
		if done != nil {
			done()
		}
		return
	}
	// Sample transaction by mix weight.
	probs := a.MixProbabilities()
	x := s.routeRNG.Float64()
	idx := len(a.Txns) - 1
	for i, p := range probs {
		x -= p
		if x <= 0 {
			idx = i
			break
		}
	}
	txn := a.Txns[idx]
	start := s.eng.Now()
	if txn.LatencyMS > 0 {
		// CPU-free I/O waits (disk, network) delay the response without
		// occupying any station; charging them up front keeps the
		// response-time sum identical and the drop path simple.
		latency := s.serviceRNG.LogNormal(txn.LatencyMS/1000, 0.3)
		s.eng.Schedule(time.Duration(latency*float64(time.Second)), func() {
			s.visitTier(a, txn, 0, start, done)
		})
		return
	}
	s.visitTier(a, txn, 0, start, done)
}

// visitTier routes the request through tier i; past the last tier the
// response time is recorded.
func (s *System) visitTier(a *app.Spec, txn app.TxnSpec, i int, start time.Duration, done func()) {
	if i >= len(a.Tiers) {
		c := s.collectors[a.Name]
		rt := (s.eng.Now() - start).Seconds()
		c.rt.Add(rt)
		c.rts = append(c.rts, rt)
		c.completed++
		if done != nil {
			done()
		}
		return
	}
	tier := a.Tiers[i].Name
	id, ok := s.pickReplica(a, tier)
	if !ok {
		// Unserved tier: the request cannot complete; it is dropped and not
		// counted, mirroring connection errors on a missing tier.
		if done != nil {
			done()
		}
		return
	}
	proceed := func() {
		// The replica may have been removed while the request waited at
		// Dom-0: drop it, as RemoveVM drops its in-flight requests.
		st, ok := s.vmStations[id]
		if !ok {
			if done != nil {
				done()
			}
			return
		}
		demand := s.serviceRNG.LogNormal(txn.DemandMS[tier]/1000, serviceCV)
		st.Submit(demand, func() {
			s.visitTier(a, txn, i+1, start, done)
		})
	}
	// Dom-0 handles the virtualization overhead of the visit first.
	if d0 := s.dom0[s.vmHost[id]]; d0 != nil && a.Dom0OverheadMS > 0 {
		overhead := s.serviceRNG.LogNormal(a.Dom0OverheadMS/1000, serviceCV)
		d0.Submit(overhead, proceed)
	} else {
		proceed()
	}
}

// SetVMRate changes a VM's CPU allocation (fraction of host, in percent, at
// nominal speed; the host's frequency scales it).
func (s *System) SetVMRate(id cluster.VMID, cpuPct float64) error {
	st, ok := s.vmStations[id]
	if !ok {
		return fmt.Errorf("queueing: unknown VM %q", id)
	}
	s.vmPct[id] = cpuPct
	st.SetRate(s.vmRate(s.vmHost[id], cpuPct))
	return nil
}

// PauseVM stops a VM's CPU for the given duration (e.g. the stop-and-copy
// downtime at the end of a live migration), then restores its rate.
func (s *System) PauseVM(id cluster.VMID, d time.Duration) error {
	st, ok := s.vmStations[id]
	if !ok {
		return fmt.Errorf("queueing: unknown VM %q", id)
	}
	restore := st.Rate()
	st.SetRate(0)
	s.eng.Schedule(d, func() { st.SetRate(restore) })
	return nil
}

// MoveVM reassigns a VM's Dom-0 accounting to a new host (the completion of
// a live migration). The VM keeps its allocation, which runs at the
// destination's frequency.
func (s *System) MoveVM(id cluster.VMID, dstHost string) error {
	st, ok := s.vmStations[id]
	if !ok {
		return fmt.Errorf("queueing: unknown VM %q", id)
	}
	if _, ok := s.dom0[dstHost]; !ok {
		return fmt.Errorf("queueing: destination host %q not active", dstHost)
	}
	src := s.vmHost[id]
	s.vmHost[id] = dstHost
	if s.hostFreq[dstHost] != s.hostFreq[src] {
		st.SetRate(s.vmRate(dstHost, s.vmPct[id]))
	}
	return nil
}

// SetHostFreq records a host's DVFS frequency and rescales every station on
// it: VM stations run at allocation × freq, Dom-0 at its share × freq (less
// background). allocs supplies VMs' allocations in percent (from the
// configuration); a VM it omits keeps the allocation last set.
func (s *System) SetHostFreq(host string, freq float64, allocs map[cluster.VMID]float64) error {
	d0, ok := s.dom0[host]
	if !ok {
		return fmt.Errorf("queueing: host %q not active", host)
	}
	if freq <= 0 || freq > 1 {
		return fmt.Errorf("queueing: invalid frequency %v", freq)
	}
	s.hostFreq[host] = freq
	for id, h := range s.vmHost {
		if h != host {
			continue
		}
		if alloc, ok := allocs[id]; ok {
			s.vmPct[id] = alloc
		}
		s.vmStations[id].SetRate(s.vmRate(host, s.vmPct[id]))
	}
	d0.SetRate(s.dom0Rate(host))
	return nil
}

// AddHost activates a host, creating its Dom-0 station. Adding an
// already-active host is an error.
func (s *System) AddHost(host string) error {
	if _, ok := s.cat.Host(host); !ok {
		return fmt.Errorf("queueing: unknown host %q", host)
	}
	if _, ok := s.dom0[host]; ok {
		return fmt.Errorf("queueing: host %q already active", host)
	}
	s.hostFreq[host] = 1
	s.dom0[host] = NewStation(s.eng, s.dom0Rate(host))
	tw := &stats.TimeWeighted{}
	tw.Set(s.eng.Now(), 0)
	s.dom0BGUse[host] = tw
	return nil
}

// RemoveHost deactivates an empty host. Removing a host that still has VMs
// is an error.
func (s *System) RemoveHost(host string) error {
	if _, ok := s.dom0[host]; !ok {
		return fmt.Errorf("queueing: host %q not active", host)
	}
	for id, h := range s.vmHost {
		if h == host {
			return fmt.Errorf("queueing: host %q still hosts VM %q", host, id)
		}
	}
	delete(s.dom0, host)
	delete(s.hostFreq, host)
	delete(s.dom0BG, host)
	delete(s.dom0BGUse, host)
	return nil
}

// AddVM activates a VM on a host with the given CPU allocation (replica
// addition). The host must be active.
func (s *System) AddVM(id cluster.VMID, host string, cpuPct float64) error {
	if _, ok := s.vmStations[id]; ok {
		return fmt.Errorf("queueing: VM %q already active", id)
	}
	if _, ok := s.dom0[host]; !ok {
		return fmt.Errorf("queueing: host %q not active", host)
	}
	s.vmStations[id] = NewStation(s.eng, s.vmRate(host, cpuPct))
	s.vmHost[id] = host
	s.vmPct[id] = cpuPct
	return nil
}

// RemoveVM deactivates a VM (replica removal). In-flight requests at the
// VM are dropped, mirroring connection resets during deactivation.
func (s *System) RemoveVM(id cluster.VMID) error {
	st, ok := s.vmStations[id]
	if !ok {
		return fmt.Errorf("queueing: VM %q not active", id)
	}
	st.SetRate(0)
	delete(s.vmStations, id)
	delete(s.vmHost, id)
	delete(s.vmPct, id)
	return nil
}

// SetDom0Background sets the fraction of a host's Dom-0 share occupied by
// background work (live-migration page copying). It slows the Dom-0
// station and counts as consumed CPU.
func (s *System) SetDom0Background(host string, frac float64) error {
	d0, ok := s.dom0[host]
	if !ok {
		return fmt.Errorf("queueing: host %q not active", host)
	}
	frac = stats.Clamp(frac, 0, 1)
	s.dom0BG[host] = frac
	d0.SetRate(s.dom0Rate(host))
	s.dom0BGUse[host].Set(s.eng.Now(), cluster.Dom0CPUShare*frac)
	return nil
}

// Run advances the simulation to the given absolute virtual time.
func (s *System) Run(until time.Duration) error {
	if err := s.eng.Run(until); err != nil {
		return fmt.Errorf("queueing: %w", err)
	}
	return nil
}

// AppWindow summarizes one application over a measurement window.
type AppWindow struct {
	MeanRTSec float64
	P95RTSec  float64
	Completed uint64
}

// Window summarizes a measurement window.
type Window struct {
	Apps map[string]AppWindow
	// HostUtil is the mean CPU utilization per host over the window
	// (VM stations + Dom-0 + background), in [0,1] of host capacity.
	HostUtil map[string]float64
}

// ResetWindow clears all window accumulators, starting a new measurement
// window at the current instant.
func (s *System) ResetWindow() {
	for _, c := range s.collectors {
		c.rt.Reset()
		c.rts = c.rts[:0]
		c.completed = 0
	}
	for _, st := range s.vmStations {
		st.ResetUsage()
	}
	for h, st := range s.dom0 {
		st.ResetUsage()
		s.dom0BGUse[h].Reset(s.eng.Now(), cluster.Dom0CPUShare*s.dom0BG[h])
	}
}

// Snapshot returns the metrics accumulated since the last ResetWindow.
func (s *System) Snapshot() Window {
	w := Window{
		Apps:     make(map[string]AppWindow, len(s.collectors)),
		HostUtil: make(map[string]float64, len(s.dom0)),
	}
	for name, c := range s.collectors {
		w.Apps[name] = AppWindow{
			MeanRTSec: c.rt.Mean(),
			P95RTSec:  stats.Quantile(c.rts, 0.95),
			Completed: c.completed,
		}
	}
	// VM stations fold into per-host utilization in sorted ID order: the
	// sum is floating point and map order would shuffle its last bits.
	ids := make([]cluster.VMID, 0, len(s.vmStations))
	for id := range s.vmStations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for h := range s.dom0 {
		var util float64
		for _, id := range ids {
			if s.vmHost[id] == h {
				util += s.vmStations[id].MeanUsageSince()
			}
		}
		util += s.dom0[h].MeanUsageSince()
		bg := s.dom0BGUse[h]
		bg.Flush(s.eng.Now())
		util += bg.Mean()
		w.HostUtil[h] = stats.Clamp(util, 0, 1)
	}
	return w
}
