package lqn

import (
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/power"
)

func TestDVFSSlowsServiceAndSavesPower(t *testing.T) {
	a := app.RUBiS("a")
	h0 := cluster.DefaultHostSpec("h0")
	h0.DVFSLevels = []float64{0.6, 0.8}
	h1 := cluster.DefaultHostSpec("h1")
	h1.DVFSLevels = []float64{0.6, 0.8}
	cat, err := app.BuildCatalog([]cluster.HostSpec{h0, h1}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cat, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{"a": 20}

	nominal, err := m.Evaluate(cfg, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := cfg.Clone()
	slow.SetHostFreq("h0", 0.6)
	slow.SetHostFreq("h1", 0.6)
	scaled, err := m.Evaluate(slow, load, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Lower frequency -> slower service -> higher response time.
	if scaled.MeanRTSec("a") <= nominal.MeanRTSec("a") {
		t.Errorf("RT at 60%% freq (%v) not above nominal (%v)", scaled.MeanRTSec("a"), nominal.MeanRTSec("a"))
	}
	// Utilization of the reduced capacity is higher.
	if scaled.Hosts["h0"].CPUUtil <= nominal.Hosts["h0"].CPUUtil {
		t.Errorf("util at 60%% freq (%v) not above nominal (%v)", scaled.Hosts["h0"].CPUUtil, nominal.Hosts["h0"].CPUUtil)
	}
	// But the system draws less power at the lower voltage/frequency.
	nomUtil := map[string]float64{"h0": nominal.Hosts["h0"].CPUUtil, "h1": nominal.Hosts["h1"].CPUUtil}
	slowUtil := map[string]float64{"h0": scaled.Hosts["h0"].CPUUtil, "h1": scaled.Hosts["h1"].CPUUtil}
	nomW := power.SystemWatts(cat, cfg, nomUtil)
	slowW := power.SystemWatts(cat, slow, slowUtil)
	if slowW >= nomW {
		t.Errorf("watts at 60%% freq (%v) not below nominal (%v)", slowW, nomW)
	}
}

func TestHostWattsAtFreqReducesToNominal(t *testing.T) {
	spec := cluster.DefaultHostSpec("h")
	for _, u := range []float64{0, 0.3, 0.7, 1} {
		if got, want := power.HostWattsAtFreq(spec, u, 1), power.HostWatts(spec, u); got != want {
			t.Errorf("freq=1 watts = %v, want %v", got, want)
		}
		if power.HostWattsAtFreq(spec, u, 0.6) >= power.HostWatts(spec, u) {
			t.Errorf("freq=0.6 watts not below nominal at util %v", u)
		}
	}
}
