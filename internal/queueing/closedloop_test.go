package queueing

import (
	"math"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

func closedLoopSystem(t *testing.T) *System {
	t.Helper()
	a := app.RUBiS("a")
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"),
	}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cat, []*app.Spec{a}, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestClosedLoopOffersExpectedRate(t *testing.T) {
	sys := closedLoopSystem(t)
	// 240 sessions with ~7.6s think and sub-second response: the offered
	// rate is n/(think+RT) ≈ 30 req/s.
	if err := sys.SetSessions("a", 240, 7600*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(60 * time.Second); err != nil { // warm-up
		t.Fatal(err)
	}
	sys.ResetWindow()
	const window = 600.0
	if err := sys.Run(time.Duration((60 + window) * float64(time.Second))); err != nil {
		t.Fatal(err)
	}
	w := sys.Snapshot()
	throughput := float64(w.Apps["a"].Completed) / window
	if math.Abs(throughput-30)/30 > 0.1 {
		t.Errorf("closed-loop throughput = %.1f req/s, want ~30", throughput)
	}
}

func TestClosedLoopBoundsBacklog(t *testing.T) {
	sys := closedLoopSystem(t)
	// Overload: with closed-loop clients, at most n requests are ever in
	// flight, so response times stay bounded by roughly n × service.
	if err := sys.SetSessions("a", 100, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(360 * time.Second); err != nil {
		t.Fatal(err)
	}
	w := sys.Snapshot()
	if w.Apps["a"].Completed == 0 {
		t.Fatal("no completions under overload")
	}
	if rt := w.Apps["a"].MeanRTSec; rt > 60 {
		t.Errorf("closed-loop overload RT = %vs: backlog not bounded", rt)
	}
}

func TestClosedLoopScalesDown(t *testing.T) {
	sys := closedLoopSystem(t)
	if err := sys.SetSessions("a", 160, 7600*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Shrink the population: throughput must fall accordingly. (Run takes
	// absolute virtual times.)
	if err := sys.SetSessions("a", 40, 7600*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(360 * time.Second); err != nil { // drain retiring sessions
		t.Fatal(err)
	}
	sys.ResetWindow()
	const window = 600.0
	if err := sys.Run(time.Duration((360 + window) * float64(time.Second))); err != nil {
		t.Fatal(err)
	}
	throughput := float64(sys.Snapshot().Apps["a"].Completed) / window
	if math.Abs(throughput-5)/5 > 0.2 {
		t.Errorf("after scale-down throughput = %.2f req/s, want ~5", throughput)
	}
}

func TestSetSessionsValidation(t *testing.T) {
	sys := closedLoopSystem(t)
	if err := sys.SetSessions("ghost", 10, time.Second); err == nil {
		t.Error("unknown app accepted")
	}
	if err := sys.SetSessions("a", -1, time.Second); err == nil {
		t.Error("negative sessions accepted")
	}
	if err := sys.SetSessions("a", 1, -time.Second); err == nil {
		t.Error("negative think accepted")
	}
}

func TestSetSessionsStopsOpenLoop(t *testing.T) {
	sys := closedLoopSystem(t)
	if err := sys.SetRate("a", 50); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSessions("a", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sys.Snapshot().Apps["a"].Completed; got != 0 {
		t.Errorf("open-loop arrivals survived SetSessions: %d completions", got)
	}
}
