package experiments

import (
	"math"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
)

// requestLevelReplay replays strategy s on the request-level testbed for its
// first windows control windows (0: the whole day) and fails unless the
// replay ends without an error, covers them all and accrues a finite
// cumulative utility. A panic anywhere in the replay fails the test too.
func requestLevelReplay(t *testing.T, s StrategyName, windows int) {
	t.Helper()
	rc := Recipe{Lab: LabOptions{NumApps: 2, Seed: 42, Mode: testbed.ModeRequestLevel}, Strategy: string(s)}
	run := scenario.RunConfig{Duration: time.Duration(windows) * utility.PaperParams(nil).MonitoringInterval}
	rp, err := replay(rc, paperMistral(), run)
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	res := rp.Engine.Result()
	if windows > 0 && len(res.Windows) != windows {
		t.Errorf("%s: %d windows, want %d", s, len(res.Windows), windows)
	}
	if math.IsNaN(res.CumUtility) || math.IsInf(res.CumUtility, 0) {
		t.Errorf("%s: cumulative utility %v", s, res.CumUtility)
	}
	t.Logf("%s: %d windows, cumulative utility %.1f", s, len(res.Windows), res.CumUtility)
}

// TestRequestLevelReplaySlices replays every compared strategy on the
// request-level testbed: Pwr-Cost through window 70, past the window-68
// replica removal that once left a request queued at Dom-0 holding a nil
// station, and the other three for their first hour. The full day, over a
// minute for all four, is TestRequestLevelFullDay behind the requestday
// build tag.
func TestRequestLevelReplaySlices(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	for _, c := range []struct {
		strategy StrategyName
		windows  int
	}{
		{StrategyPwrCost, 71},
		{StrategyMistral, 30},
		{StrategyPerfPwr, 30},
		{StrategyPerfCost, 30},
	} {
		t.Run(string(c.strategy), func(t *testing.T) {
			t.Parallel() // independent replays; Pwr-Cost alone is most of the wall time
			requestLevelReplay(t, c.strategy, c.windows)
		})
	}
}
