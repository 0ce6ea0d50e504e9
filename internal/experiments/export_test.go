package experiments

import (
	"fmt"

	"botscope/internal/synth"
)

// NewWorkload generates the synthetic workload cfg describes; a Scale
// <= 0 means paper size.
func NewWorkload(cfg synth.Config) (*Workload, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	store, err := synth.GenerateStore(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate workload: %w", err)
	}
	return FromStore(store, cfg.Scale), nil
}
