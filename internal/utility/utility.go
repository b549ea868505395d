// Package utility implements the paper's utility model (§II-B): per-
// application performance utility accrual (Eq. 1) with workload-dependent
// rewards and penalties (Fig. 3), power utility (Eq. 2), and the overall
// utility of an adaptation — transient action costs plus steady-state
// accrual over the stability interval (Eq. 3).
//
// All accrual rates are expressed in dollars per second so that durations
// in time.Duration multiply cleanly; cumulative utilities reported by the
// experiments are plain dollar sums, comparable to the paper's Figure 9.
package utility

import (
	"fmt"
	"sort"
	"time"
)

// AppParams defines one application's performance objective: a target mean
// response time and reward/penalty amounts per monitoring period as
// functions of the request rate (allowing arbitrary utility shapes; the
// paper's Fig. 3 instance is PaperReward/PaperPenalty).
type AppParams struct {
	// TargetRT is the response-time objective TRT (400 ms in the paper).
	// A nil RewardAt/PenaltyAt pair defaults to the paper's functions.
	TargetRT time.Duration
	// RewardAt returns the reward (dollars per monitoring period) for
	// meeting the target at the given request rate.
	RewardAt func(rate float64) float64
	// PenaltyAt returns the penalty (negative dollars per monitoring
	// period) for missing the target at the given request rate.
	PenaltyAt func(rate float64) float64
	// PenaltyGradient optionally grades the penalty by how badly the
	// target is missed: the penalty is multiplied by
	// 1 + PenaltyGradient·min((RT−TRT)/TRT, 3). The paper's Eq. 1 is flat
	// (gradient 0); controllers may plan with a graded penalty so that a
	// hopeless window still prefers less-degraded service over shedding
	// capacity for power ("you're failing anyway, save power" is rational
	// under a flat penalty but operationally absurd).
	PenaltyGradient float64
}

// PaperReward reproduces Figure 3's reward curve: increasing with request
// rate from $1.0 to $3.5 per monitoring period over 0–100 req/s.
func PaperReward(rate float64) float64 {
	if rate < 0 {
		rate = 0
	}
	if rate > 100 {
		rate = 100
	}
	return 1.0 + 2.5*rate/100
}

// PaperPenalty reproduces Figure 3's penalty curve: rising (shrinking in
// magnitude) from −$3.5 to −$1.0 per monitoring period over 0–100 req/s,
// reflecting the increasingly best-effort nature of service under load.
func PaperPenalty(rate float64) float64 {
	if rate < 0 {
		rate = 0
	}
	if rate > 100 {
		rate = 100
	}
	return -(3.5 - 2.5*rate/100)
}

// Params carries the full utility model configuration.
type Params struct {
	// MonitoringInterval is M, the application-defined monitoring window
	// over which rewards/penalties accrue once (2 minutes in the paper).
	MonitoringInterval time.Duration
	// PowerCostPerWattInterval is the dollar cost of one watt drawn for one
	// monitoring interval ($0.01 in the paper).
	PowerCostPerWattInterval float64
	// Apps maps application name to its performance objective.
	Apps map[string]AppParams
}

// PaperParams returns the evaluation settings of §V-A for the given
// applications: M = 2 min, $0.01 per watt-interval, 400 ms targets with the
// Fig. 3 reward/penalty curves.
func PaperParams(appNames []string) *Params {
	p := &Params{
		MonitoringInterval:       2 * time.Minute,
		PowerCostPerWattInterval: 0.01,
		Apps:                     make(map[string]AppParams, len(appNames)),
	}
	for _, name := range appNames {
		p.Apps[name] = AppParams{
			TargetRT:  400 * time.Millisecond,
			RewardAt:  PaperReward,
			PenaltyAt: PaperPenalty,
		}
	}
	return p
}

// Validate checks the parameters are usable.
func (p *Params) Validate() error {
	if p.MonitoringInterval <= 0 {
		return fmt.Errorf("utility: non-positive monitoring interval")
	}
	if p.PowerCostPerWattInterval < 0 {
		return fmt.Errorf("utility: negative power cost")
	}
	if len(p.Apps) == 0 {
		return fmt.Errorf("utility: no applications")
	}
	for name, a := range p.Apps {
		if a.TargetRT <= 0 {
			return fmt.Errorf("utility: app %q has non-positive target RT", name)
		}
	}
	return nil
}

// Reward is the reward (dollars per monitoring period) for meeting the
// target at the given request rate: RewardAt, or the paper's curve when
// unset.
func (a AppParams) Reward(rate float64) float64 {
	if a.RewardAt == nil {
		return PaperReward(rate)
	}
	return a.RewardAt(rate)
}

// Penalty is the penalty (negative dollars per monitoring period) for
// missing the target at the given request rate: PenaltyAt, or the paper's
// curve when unset.
func (a AppParams) Penalty(rate float64) float64 {
	if a.PenaltyAt == nil {
		return PaperPenalty(rate)
	}
	return a.PenaltyAt(rate)
}

// PerfRate implements Eq. 1: the utility accrual rate (dollars/second) of
// one application given its request rate and mean response time. Unknown
// applications accrue nothing.
func (p *Params) PerfRate(appName string, rate, rtSec float64) float64 {
	a, ok := p.Apps[appName]
	if !ok {
		return 0
	}
	return a.PerfRate(p.MonitoringInterval.Seconds(), rate, rtSec)
}

// PerfRate is Eq. 1 for this application over a monitoring interval of
// intervalSec seconds: what Params.PerfRate computes once it has looked the
// application up, for callers that hold the parameters in an array.
func (a AppParams) PerfRate(intervalSec, rate, rtSec float64) float64 {
	target := a.TargetRT.Seconds()
	if rtSec <= target {
		return a.Reward(rate) / intervalSec
	}
	pen := a.Penalty(rate)
	if a.PenaltyGradient > 0 && target > 0 {
		over := (rtSec - target) / target
		if over > 3 {
			over = 3
		}
		pen *= 1 + a.PenaltyGradient*over
	}
	return pen / intervalSec
}

// PerfRateAll sums Eq. 1 across all applications given per-app rates and
// response times. Applications are visited in sorted name order: the sum is
// a floating-point fold, and map iteration order would make its last bits
// differ from run to run, breaking bit-exact replay determinism.
func (p *Params) PerfRateAll(rates, rtSec map[string]float64) float64 {
	names := make([]string, 0, len(p.Apps))
	for name := range p.Apps {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += p.PerfRate(name, rates[name], rtSec[name])
	}
	return sum
}

// PowerRate implements Eq. 2: the (negative) utility accrual rate in
// dollars/second of drawing the given watts.
func (p *Params) PowerRate(watts float64) float64 {
	if watts < 0 {
		watts = 0
	}
	return -watts * p.PowerCostPerWattInterval / p.MonitoringInterval.Seconds()
}

// NetRate is the combined steady-state accrual rate of a system state:
// performance utility plus power utility, dollars/second.
func (p *Params) NetRate(rates, rtSec map[string]float64, watts float64) float64 {
	return p.PerfRateAll(rates, rtSec) + p.PowerRate(watts)
}

// Phase describes the system during the execution of one adaptation action:
// its duration, the mean power draw, and per-application mean response
// times while the action runs (the transient costs of §III-C).
type Phase struct {
	Duration time.Duration
	Watts    float64
	RTSec    map[string]float64
}

// Overall implements Eq. 3: the utility accrued between two controller
// invocations. The actions run first (each charged at its transient rates),
// and the resulting configuration's steady-state rates accrue for the
// remainder of the stability interval cw. If the actions exceed cw, the
// steady-state term is zero (the adaptation never pays off within the
// window).
func (p *Params) Overall(rates map[string]float64, phases []Phase, steadyWatts float64, steadyRT map[string]float64, cw time.Duration) float64 {
	var total float64
	var spent time.Duration
	for _, ph := range phases {
		d := ph.Duration
		if d < 0 {
			d = 0
		}
		total += d.Seconds() * (p.PowerRate(ph.Watts) + p.PerfRateAll(rates, ph.RTSec))
		spent += d
	}
	remaining := cw - spent
	if remaining > 0 {
		total += remaining.Seconds() * p.NetRate(rates, steadyRT, steadyWatts)
	}
	return total
}
