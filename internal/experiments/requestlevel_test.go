package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// requestLevelReplay replays rc on the request-level testbed for its first
// windows control windows (0: the whole day) and fails unless the replay
// ends without an error, covers them all and accrues a finite cumulative
// utility. A panic anywhere in the replay fails the test too.
func requestLevelReplay(t *testing.T, rc Recipe, windows int) *scenario.Result {
	t.Helper()
	rc.Lab.Mode = testbed.ModeRequestLevel
	run := scenario.RunConfig{Duration: time.Duration(windows) * utility.PaperParams(nil).MonitoringInterval}
	rp, err := replay(rc, run)
	if err != nil {
		t.Fatalf("%s: %v", rc.Strategy, err)
	}
	res := rp.Engine.Result()
	if windows > 0 && len(res.Windows) != windows {
		t.Errorf("%s: %d windows, want %d", rc.Strategy, len(res.Windows), windows)
	}
	if math.IsNaN(res.CumUtility) || math.IsInf(res.CumUtility, 0) {
		t.Errorf("%s: cumulative utility %v", rc.Strategy, res.CumUtility)
	}
	t.Logf("%s: %d windows, cumulative utility %.1f", rc.Strategy, len(res.Windows), res.CumUtility)
	return res
}

// strategyRecipe is the paper recipe at seed 42 under strategy s.
func strategyRecipe(s StrategyName) Recipe {
	rc := PaperRecipe(42)
	rc.Strategy = string(s)
	return rc
}

// TestRequestLevelReplaySlices replays every compared strategy on the
// request-level testbed: Pwr-Cost through window 70, past the window-68
// replica removal that once left a request queued at Dom-0 holding a nil
// station, and the other three for their first hour; and Mistral for an
// hour at a 10% action-failure rate under rollback, so failed and
// compensating steps run through the DES too. The testbed runs every plan:
// no window is degraded by a rejected plan. Each slice's per-window
// response times, watts, utility and degraded reason are pinned to
// testdata/requestlevel-NAME.golden (`-update` rewrites them). The full day,
// over a minute for all four, is TestRequestLevelFullDay behind the
// requestday build tag.
func TestRequestLevelReplaySlices(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	faulted := strategyRecipe(StrategyMistral)
	faulted.FaultRate, faulted.ExecPolicy = 0.1, testbed.RollbackOnFailure
	for _, c := range []struct {
		name    string
		recipe  Recipe
		windows int
	}{
		{string(StrategyPwrCost), strategyRecipe(StrategyPwrCost), 71},
		{string(StrategyMistral), strategyRecipe(StrategyMistral), 30},
		{string(StrategyPerfPwr), strategyRecipe(StrategyPerfPwr), 30},
		{string(StrategyPerfCost), strategyRecipe(StrategyPerfCost), 30},
		{"Mistral-faults-rollback", faulted, 30},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // independent replays; Pwr-Cost alone is most of the wall time
			res := requestLevelReplay(t, c.recipe, c.windows)
			var buf bytes.Buffer
			for i, w := range res.Windows {
				fmt.Fprintf(&buf, "%d watts=%.9g utility=%.9g", i, w.Watts, w.Utility)
				names := make([]string, 0, len(w.RTSec))
				for name := range w.RTSec {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Fprintf(&buf, " %s=%.9g", name, w.RTSec[name])
				}
				if w.DegradedReason != "" {
					fmt.Fprintf(&buf, " degraded=%q", w.DegradedReason)
				}
				if strings.Contains(w.DegradedReason, "plan rejected") {
					t.Errorf("window %d: the testbed rejected the plan: %s", i, w.DegradedReason)
				}
				buf.WriteByte('\n')
			}
			path := filepath.Join("testdata", "requestlevel-"+strings.ToLower(c.name)+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
			}
		})
	}
}
