// Package experiments reproduces every figure and table of the paper's
// evaluation (Sec. VI): each experiment is a deterministic scenario
// builder returning both the recorded traces (for plotting) and the
// summary quantities the paper reports (for tables, tests and benches).
// The cmd/experiments tool renders them; the repository's integration
// tests assert their qualitative shape against the paper's claims.
package experiments

import "repro/internal/sim"

// DefaultConfig returns the platform configuration shared by all
// experiments: the Table I calibration.
func DefaultConfig() sim.Config { return sim.Default() }
