// Command experiments regenerates every figure and table of the paper's
// evaluation section (Sec. VI) from the simulator: ASCII plots for the
// figures, aligned text tables for Table III, and optional CSV dumps for
// external plotting. It also runs the campaigns that span many specs,
// each a file: a grid (specs/grids/, run by `sweep -grid F`) or a fault
// campaign (specs/campaigns/, run by `faultsweep -campaign F`). Both can
// persist their cells in a content-addressed store, so a repeated
// campaign resumes instead of recomputing; `store ls|gc` inspects and
// trims that store. Every subcommand routes through the unified scenario
// layer (internal/scenario). Every paper run is a file under specs/
// (fig1, fig3, fig4, fig5, table3 and faults .json) that the subcommand
// loads and `scenariod run -spec F` runs as well; so is any other single
// spec, such as one rack under fleet or fleetcoord.
//
//	experiments [flags]                the figure set (fig1, fig3-5, table3)
//	experiments SUBCOMMAND [flags]
//	experiments store ls|gc [flags]
//
// The subcommand comes first. Any unknown subcommand prints the
// generated listing of subcommands, their flags, and the scenario
// vocabulary (kinds, workloads, policies) — the listing is built from
// the live flag sets and the vocabulary tables Validate checks specs
// against, so it cannot drift from the implementation.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/specs"
)

// command is one subcommand: its flag set carries exactly the flags the
// implementation reads, so the generated usage listing is always current.
type command struct {
	name    string
	summary string
	flags   *flag.FlagSet
	run     func() error
	// runAction, when set instead of run, receives the action word that
	// comes right after the subcommand's name (store's ls or gc).
	runAction func(action string) error
}

// commands is populated in main (fixed order for the usage listing).
var commands []*command

// newCommand registers a subcommand.
func newCommand(name, summary string, setup func(*flag.FlagSet), run func() error) *command {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	if setup != nil {
		setup(fs)
	}
	c := &command{name: name, summary: summary, flags: fs, run: run}
	commands = append(commands, c)
	return c
}

// usage prints the generated subcommand/flag listing plus the scenario
// vocabulary.
func usage(w *os.File) {
	fmt.Fprintf(w, "usage: experiments [subcommand] [flags]\n       experiments store ls|gc [flags]\n\nSubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
		c.flags.VisitAll(func(f *flag.Flag) {
			def := ""
			if f.DefValue != "" {
				def = fmt.Sprintf(" (default %s)", f.DefValue)
			}
			fmt.Fprintf(w, "      -%-10s %s%s\n", f.Name, f.Usage, def)
		})
	}
	fmt.Fprintf(w, "\nScenario vocabulary (internal/scenario):\n")
	fmt.Fprintf(w, "  kinds:\n")
	for _, r := range scenario.KindList() {
		fmt.Fprintf(w, "    %-14s %s\n", r.Name, r.Doc)
	}
	fmt.Fprintf(w, "  workloads:\n")
	for _, r := range scenario.Workloads() {
		fmt.Fprintf(w, "    %-14s %s\n", r.Name, r.Doc)
	}
	fmt.Fprintf(w, "  policies:\n")
	for _, r := range scenario.Policies() {
		fmt.Fprintf(w, "    %-14s %s\n", r.Name, r.Doc)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		csvDir string

		mcSeeds int

		storeDir     string
		gridFile     string
		campaignFile string

		gcMaxBytes int64
		gcMaxCells int
	)

	csvFlag := func(fs *flag.FlagSet) {
		fs.StringVar(&csvDir, "csv", "", "directory to write trace CSVs into (optional)")
	}
	storeFlag := func(fs *flag.FlagSet) {
		fs.StringVar(&storeDir, "store", "", "content-addressed result store directory (optional)")
	}
	newCommand("fig1", "telemetry lag of the I2C power-sensor path", csvFlag,
		func() error { return fig1(csvDir) })
	newCommand("fig3", "fixed-gain vs adaptive PID fan control", csvFlag,
		func() error { return fig3(csvDir) })
	newCommand("fig4", "deadzone fan controller limit cycle", csvFlag,
		func() error { return fig4(csvDir) })
	newCommand("fig5", "proposed stack under dynamic noisy load", csvFlag,
		func() error { return fig5(csvDir) })
	// table3 accepts -csv for symmetry with the figure subcommands (the
	// "all" path hands every subcommand the same flags) but writes no CSV.
	newCommand("table3", "the five-solution coordination comparison", csvFlag, table3)
	newCommand("table3mc", "Table III across Monte Carlo seeds", func(fs *flag.FlagSet) {
		fs.IntVar(&mcSeeds, "seeds", 8, "Monte Carlo seed count")
	}, func() error { return table3mc(mcSeeds) })
	newCommand("faults", "full stack through a stuck sensor + dropout", nil, faults)
	newCommand("sweep", "run a grid file's cells, one row each (resumable with -store)", func(fs *flag.FlagSet) {
		fs.StringVar(&gridFile, "grid", "", "grid file: a base spec and axes of merge patches (required)")
		storeFlag(fs)
	}, func() error { return gridSweep(gridFile, storeDir) })
	newCommand("faultsweep", "graceful-degradation campaign file: fault type × severity × target stack (resumable with -store)", func(fs *flag.FlagSet) {
		fs.StringVar(&campaignFile, "campaign", "", "fault campaign file (required)")
		storeFlag(fs)
	}, func() error { return faultSweep(campaignFile, storeDir) })
	newCommand("store", "inspect or trim a result store (actions: ls, gc)", func(fs *flag.FlagSet) {
		fs.StringVar(&storeDir, "store", "", "content-addressed result store directory (required)")
		fs.Int64Var(&gcMaxBytes, "maxbytes", 0, "gc: cap on summed cell bytes (0 = no byte cap)")
		fs.IntVar(&gcMaxCells, "maxcells", 0, "gc: cap on cell count (0 = no cell cap)")
	}, nil).runAction = func(action string) error {
		switch action {
		case "ls":
			return storeLs(storeDir)
		case "gc":
			return storeGC(storeDir, gcMaxBytes, gcMaxCells)
		case "":
			return fmt.Errorf("missing action (want: ls, gc)")
		default:
			return fmt.Errorf("unknown action %q (want: ls, gc)", action)
		}
	}

	// The subcommand is the first word; flags alone run the figure set.
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "help" || args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		usage(os.Stdout)
		return
	}
	name := "all"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if name == "all" {
		for _, fig := range []string{"fig1", "fig3", "fig4", "fig5", "table3"} {
			dispatch(find(fig), args)
		}
		return
	}
	c := find(name)
	if c == nil {
		log.Printf("unknown subcommand %q", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	dispatch(c, args)
}

// dispatch parses a subcommand's flags, after its action word if it
// takes one, and runs it.
func dispatch(c *command, args []string) {
	action := ""
	if c.runAction != nil && len(args) > 0 {
		action, args = args[0], args[1:]
	}
	if err := c.flags.Parse(args); err != nil {
		log.Fatal(err)
	}
	if stray := c.flags.Args(); len(stray) > 0 {
		log.Printf("stray argument %q (one subcommand per invocation)", stray[0])
		usage(os.Stderr)
		os.Exit(2)
	}
	run := c.run
	if c.runAction != nil {
		run = func() error { return c.runAction(action) }
	}
	if err := run(); err != nil {
		log.Fatalf("%s: %v", c.name, err)
	}
}

// find returns the named command, or nil.
func find(name string) *command {
	for _, c := range commands {
		if c.name == name {
			return c
		}
	}
	return nil
}

func dumpCSV(dir, name string, ts trace.Set) error {
	if dir == "" || ts == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return ts.WriteCSV(f)
}

// runSpec loads the named file under specs/ and runs it.
func runSpec(name string) (scenario.Spec, *scenario.Outcome, error) {
	spec, err := specs.Load(name)
	if err != nil {
		return scenario.Spec{}, nil, err
	}
	out, err := scenario.Run(spec)
	return spec, out, err
}

func fig1(csvDir string) error {
	_, out, err := runSpec("fig1.json")
	if err != nil {
		return err
	}
	res, err := experiments.Fig1FromOutcome(out)
	if err != nil {
		return err
	}
	fmt.Println(res.Traces.Plot(trace.PlotOptions{
		Height: 14,
		Title:  "Fig. 1 — power sensor lags the CPU utilization step (I2C path)",
	}))
	fmt.Printf("nominal transport lag: %v   measured half-rise lag: %.1f s\n\n",
		res.NominalLag, float64(res.MeasuredLag))
	return dumpCSV(csvDir, "fig1", res.Traces)
}

func fig3(csvDir string) error {
	spec, out, err := runSpec("fig3.json")
	if err != nil {
		return err
	}
	res, err := experiments.Fig3FromOutcome(spec, out)
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 3 — fixed-gain vs adaptive PID (T_ref = %v)\n\n", res.RefTemp)
	for _, run := range res.Runs {
		one := trace.Set{*run.Traces.Get("fan_cmd")}
		fmt.Println(one.Plot(trace.PlotOptions{
			Height: 10,
			Title:  fmt.Sprintf("fan speed — %s", run.Variant),
		}))
		settle := "never settles (too slow)"
		if run.Settled {
			settle = fmt.Sprintf("settles %.0f s after the step", float64(run.SettleAfterStep))
		}
		fmt.Printf("  %-14s %s; low-phase oscillation ±%.0f rpm\n\n", run.Variant, settle, run.LowPhaseAmp)
		if err := dumpCSV(csvDir, "fig3_"+run.Variant, run.Traces); err != nil {
			return err
		}
	}
	return nil
}

func fig4(csvDir string) error {
	spec, out, err := runSpec("fig4.json")
	if err != nil {
		return err
	}
	res, err := experiments.Fig4FromOutcome(spec, out)
	if err != nil {
		return err
	}
	one := trace.Set{*res.Traces.Get("fan_cmd")}
	fmt.Println(one.Plot(trace.PlotOptions{
		Height: 12,
		Title:  "Fig. 4 — deadzone fan control oscillates under a fixed workload",
	}))
	fmt.Printf("verdict: %v; amplitude ±%.0f rpm; period %.0f s\n\n",
		res.Oscillation.Verdict, res.AmplitudeRPM, res.PeriodSeconds)
	return dumpCSV(csvDir, "fig4", res.Traces)
}

func fig5(csvDir string) error {
	spec, out, err := runSpec("fig5.json")
	if err != nil {
		return err
	}
	res, err := experiments.Fig5FromOutcome(spec, out)
	if err != nil {
		return err
	}
	both := trace.Set{*res.Traces.Get("demand"), *res.Traces.Get("fan_cmd")}
	fmt.Println(both.Plot(trace.PlotOptions{
		Height: 14,
		Title:  "Fig. 5 — proposed stack under dynamic load with noise (σ = 0.04)",
	}))
	fmt.Printf("fan verdict: %v; max junction %.1f °C; violations %.2f%%\n\n",
		res.Oscillation.Verdict, float64(res.MaxJunction), res.Metrics.ViolationFrac*100)
	return dumpCSV(csvDir, "fig5", res.Traces)
}

func table3() error {
	_, out, err := runSpec("table3.json")
	if err != nil {
		return err
	}
	res := experiments.Table3FromOutcome(out)
	fmt.Println("Table III — performance and fan energy of the five solutions, the paper's beside ours")
	fmt.Printf("%-24s %12s %7s %12s %7s %10s %8s\n", "Solution", "Violation(%)", "paper", "Norm.energy", "paper", "MeanFan", "Tmax")
	for i, r := range res.Rows {
		p := experiments.PaperTable3[i]
		fmt.Printf("%-24s %12.2f %7.2f %12.3f %7.3f %10.0f %8.1f\n",
			r.Name, r.ViolationPct, p.ViolationPct, r.NormFanEnergy, p.NormFanEnergy, float64(r.MeanFanSpeed), float64(r.MaxJunction))
	}
	fmt.Println()
	return nil
}

func table3mc(nSeeds int) error {
	if nSeeds < 1 {
		return fmt.Errorf("-seeds %d, want at least 1", nSeeds)
	}
	table3, err := specs.Load("table3.json")
	if err != nil {
		return err
	}
	out, err := scenario.Run(experiments.Table3MCSpec(table3, nSeeds))
	if err != nil {
		return err
	}
	res, err := experiments.Table3MCFromOutcome(table3, nSeeds, out)
	if err != nil {
		return err
	}
	fmt.Printf("Table III (Monte Carlo, %d seeds %d..%d) — mean ± stddev across seeds\n",
		len(res.Seeds), res.Seeds[0], res.Seeds[len(res.Seeds)-1])
	fmt.Printf("%-24s %18s %18s %14s %12s\n",
		"Solution", "Violation(%)", "Norm.energy", "MeanFan", "Tmax")
	for _, r := range res.Rows {
		fmt.Printf("%-24s %10.2f ± %-5.2f %10.3f ± %-5.3f %8.0f ± %-4.0f %6.1f ± %-4.1f\n",
			r.Name,
			r.ViolationPct.Mean, r.ViolationPct.Std,
			r.NormFanEnergy.Mean, r.NormFanEnergy.Std,
			r.MeanFanSpeed.Mean, r.MeanFanSpeed.Std,
			r.MaxJunction.Mean, r.MaxJunction.Std)
	}
	fmt.Println()
	return nil
}

func faults() error {
	spec, out, err := runSpec("faults.json")
	if err != nil {
		return err
	}
	res, err := experiments.FaultsFromOutcome(out)
	if err != nil {
		return err
	}
	var fault scenario.FaultSpec
	for _, j := range spec.Jobs {
		if j.Faults != nil {
			fault = *j.Faults
		}
	}
	fmt.Printf("Faults — full stack through a %.0f s stuck sensor at t=%.0f s plus %.0f%% dropout (%.0f s horizon)\n\n",
		float64(fault.StuckLen), float64(fault.StuckAt), fault.DropoutRate*100, float64(spec.Duration))
	fmt.Printf("%-10s %12s %12s %12s %10s %14s\n",
		"run", "violation(%)", "fanE(kJ)", "Tmax(°C)", "meanFan", "hwThrottle(%)")
	for _, row := range []struct {
		name string
		m    sim.Metrics
	}{{"clean", res.Clean}, {"faulted", res.Faulted}} {
		fmt.Printf("%-10s %12.2f %12.2f %12.1f %10.0f %14.2f\n",
			row.name, row.m.ViolationFrac*100, float64(row.m.FanEnergy)/1000,
			float64(row.m.MaxJunction), float64(row.m.MeanFanSpeed), row.m.HWThrottleFrac*100)
	}
	fmt.Println()
	return nil
}

// openStore opens the optional result store.
func openStore(dir string) (*scenario.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return scenario.OpenStore(dir)
}

// readFile decodes a campaign file as strictly as a spec file.
func readFile(path string, v any) error {
	if path == "" {
		return fmt.Errorf("no file given")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := scenario.DecodeStrict(f, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// storeLs prints the store's cell inventory (the `store ls` action).
func storeLs(dir string) error {
	if dir == "" {
		return fmt.Errorf("store ls: -store directory required")
	}
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return err
	}
	infos, err := st.List()
	if err != nil {
		return err
	}
	fmt.Printf("store %s: %d cell(s)\n\n", st.Dir(), len(infos))
	fmt.Printf("%-64s %-12s %-28s %5s %3s %10s\n", "key", "kind", "name", "units", "v", "bytes")
	var total int64
	for _, info := range infos {
		fmt.Printf("%-64s %-12s %-28s %5d %3d %10d\n",
			info.Key, info.Kind, info.Name, info.Units, info.Version, info.Size)
		total += info.Size
	}
	fmt.Printf("\ntotal: %d bytes\n", total)
	return nil
}

// storeGC trims the store to the caps (the `store gc` action): oldest
// modification time first, key as the tiebreaker — deterministic, so
// re-running against an unchanged store is a no-op.
func storeGC(dir string, maxBytes int64, maxCells int) error {
	if dir == "" {
		return fmt.Errorf("store gc: -store directory required")
	}
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return err
	}
	res, err := st.GC(scenario.GCConfig{MaxBytes: maxBytes, MaxCells: maxCells})
	if err != nil {
		return err
	}
	for _, key := range res.Evicted {
		fmt.Printf("evicted %s\n", key)
	}
	fmt.Printf("store %s: evicted %d cell(s) / %d bytes; %d cell(s) / %d bytes remain\n",
		st.Dir(), len(res.Evicted), res.BytesFreed, res.Remaining, res.RemainingBytes)
	return nil
}

// sweepColumns returns the result columns `sweep` prints for cells of
// one kind, as a header and a row per outcome: Table III's baseline and
// full-stack rows for a batch, the rack aggregates for a fleet, and
// local beside coordinated control for a coordinated fleet.
func sweepColumns(kind string) (string, func(*scenario.Outcome) string, error) {
	switch kind {
	case scenario.KindLockstep, scenario.KindBatch:
		return fmt.Sprintf("%16s %16s %12s", "baselineViol(%)", "fullViol(%)", "fullEnergy"),
			func(out *scenario.Outcome) string {
				rows := experiments.Table3FromOutcome(out).Rows
				base, full := rows[0], rows[len(rows)-1]
				return fmt.Sprintf("%16.2f %16.2f %12.3f", base.ViolationPct, full.ViolationPct, full.NormFanEnergy)
			}, nil
	case scenario.KindFleet:
		return fmt.Sprintf("%12s %12s %12s %10s %8s", "violation(%)", "fanE(kJ)", "fanShare(%)", "peakP(W)", "Tmax"),
			func(out *scenario.Outcome) string {
				agg := out.Aggregate
				return fmt.Sprintf("%12.2f %12.2f %12.2f %10.0f %8.1f",
					agg[scenario.MetricViolationFrac]*100,
					agg[scenario.MetricFanEnergyJ]/1000,
					agg[scenario.MetricFanEnergyShare]*100,
					agg[scenario.MetricPeakRackPowerW],
					agg[scenario.MetricMaxJunctionC])
			}, nil
	case scenario.KindFleetCoord:
		return fmt.Sprintf("%13s %13s %12s %12s %8s", "localViol(%)", "coordViol(%)", "localFan(kJ)", "coordFan(kJ)", "migr(%)"),
			func(out *scenario.Outcome) string {
				agg := out.Aggregate
				return fmt.Sprintf("%13.2f %13.2f %12.2f %12.2f %8.1f",
					agg[scenario.LocalMetricPrefix+scenario.MetricViolationFrac]*100,
					agg[scenario.MetricViolationFrac]*100,
					agg[scenario.LocalMetricPrefix+scenario.MetricFanEnergyJ]/1000,
					agg[scenario.MetricFanEnergyJ]/1000,
					agg[scenario.MetricCoordMigrated]*100)
			}, nil
	}
	return "", nil, fmt.Errorf("grid cells of kind %q have no sweep columns (want lockstep, batch, fleet or fleetcoord)", kind)
}

// gridSweep runs a grid file's cells in order through the optional store
// and prints one row per cell: its labels, the result columns of its
// kind and whether the store served it. Every cell must be of one kind,
// and every cell is checked before the first runs.
func gridSweep(path, storeDir string) error {
	var grid scenario.Grid
	if err := readFile(path, &grid); err != nil {
		return err
	}
	cells, err := grid.Specs()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	kind := cells[0].Kind
	for _, cell := range cells {
		if cell.Kind != kind {
			return fmt.Errorf("%s: cell %s is a %s spec where the first is a %s spec (a grid prints one kind's columns)", path, cell.Name, cell.Kind, kind)
		}
	}
	header, row, err := sweepColumns(kind)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	res, err := scenario.Sweep(cells, store)
	if err != nil {
		return err
	}

	labels := make([]string, len(cells))
	width := len("cell")
	for i, l := range grid.Labels() {
		labels[i] = strings.Join(l, "/")
		width = max(width, len(labels[i]))
	}
	fmt.Printf("Sweep — %s: %d %s cell(s)\n\n", path, len(cells), kind)
	fmt.Printf("%-*s %s %6s\n", width, "cell", header, "cache")
	for i, cell := range res.Cells {
		fmt.Printf("%-*s %s %6s\n", width, labels[i], row(cell.Outcome), cacheWord(cell.Cached))
	}
	if store != nil {
		fmt.Printf("\nstore %s: %d hits, %d misses\n", store.Dir(), res.Hits, res.Misses)
	}
	fmt.Println()
	return nil
}
