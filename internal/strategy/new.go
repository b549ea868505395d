package strategy

import (
	"fmt"
	"strings"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/utility"
)

// New builds the named strategy over a shared evaluator. Names are matched
// case-insensitively: "mistral", "naive" (the hierarchy with the naive
// search), "perf-pwr", "perf-cost" and "pwr-cost". cfg configures the
// hierarchy and is ignored by the baselines; util is Perf-Cost's base
// utility.
func New(name string, eval *core.Evaluator, util *utility.Params, cfg MistralConfig) (scenario.Decider, error) {
	switch strings.ToLower(name) {
	case "naive":
		cfg.Naive = true
		fallthrough
	case "mistral":
		// Returned through the error check so a failed build yields a nil
		// interface, not a nil *Mistral inside one.
		m, err := NewMistral(eval, cfg)
		if err != nil {
			return nil, err
		}
		return m, nil
	case "perf-pwr":
		return NewPerfPwr(eval), nil
	case "perf-cost":
		p, err := NewPerfCost(eval, util)
		if err != nil {
			return nil, err
		}
		return p, nil
	case "pwr-cost":
		return NewPwrCost(eval), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}
