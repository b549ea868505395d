//go:build requestday

package experiments

import "testing"

// TestRequestLevelFullDay replays all four compared strategies for the whole
// 195-window day on the request-level testbed. It takes over a minute, so it
// builds only with the requestday tag:
//
//	go test -tags requestday -run TestRequestLevelFullDay ./internal/experiments/
func TestRequestLevelFullDay(t *testing.T) {
	for _, s := range AllStrategies() {
		requestLevelReplay(t, s, 0)
	}
}
