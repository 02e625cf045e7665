// Package experiments turns the outcomes of the paper's evaluation runs
// (Sec. VI) into the numbers the paper reports: Table III's rows and
// their Monte Carlo spread, the telemetry lag of Fig. 1, the settling
// and oscillation summaries of Figs. 3–5 and the fault run's metrics.
// The runs themselves are spec files under specs/ (table3.json,
// fig1.json, fig3.json, fig4.json, fig5.json, faults.json); a reducer
// that needs a run's period, set-point or horizon reads it from the spec
// it is handed. cmd/experiments renders the results, and the package's
// tests assert their qualitative shape against the paper's claims.
package experiments
