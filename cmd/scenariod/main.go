// Command scenariod serves the scenario layer over HTTP: a daemon
// holding one content-addressed result store behind a deduplicating job
// queue, so many clients (sweep scripts, CI, notebooks) share one cache
// instead of each recomputing the same cells. The client verbs talk to
// a running daemon, and run needs none; the benchmark under bench/
// measures a daemon under load.
//
//	scenariod serve  -addr 127.0.0.1:0 -store DIR [-shards N] [-workers N] [-remote HOST:PORT]
//	scenariod submit -addr HOST:PORT [-wait] -spec FILE|-
//	scenariod run    -spec FILE|-
//	scenariod get    -addr HOST:PORT KEY
//	scenariod ls     -addr HOST:PORT
//	scenariod stats  -addr HOST:PORT
//
// serve prints "scenariod listening on ADDR" once the socket is bound
// (scripts parse it to learn the ephemeral port) and shuts down cleanly
// on SIGINT/SIGTERM. run simulates one spec in process and prints the
// bytes a fresh daemon's first `submit -wait` of it prints.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/scenario"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenariod: ")
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	verb, args := os.Args[1], os.Args[2:]
	var err error
	switch verb {
	case "serve":
		err = serveCmd(args)
	case "submit":
		err = submitCmd(args)
	case "run":
		err = runCmd(args, os.Stdout)
	case "get":
		err = getCmd(args)
	case "ls":
		err = lsCmd(args)
	case "stats":
		err = statsCmd(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		log.Printf("unknown verb %q", verb)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("%s: %v", verb, err)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: scenariod <verb> [flags]

verbs:
  serve   run the daemon (HTTP API + job queue + store)
  submit  POST a spec file (or - for stdin) to a daemon
  run     simulate a spec file (or - for stdin) in process, no daemon
  get     poll one scenario key
  ls      list stored cells and in-flight jobs
  stats   print queue/storage/engine accounting

run "scenariod <verb> -h" for the verb's flags.
`)
}

// parseFlags parses a verb's flags and refuses any positional argument:
// ignored, a spec path given without -spec would leave run and submit
// decoding stdin instead of the file.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("stray argument %q (flags only; see -h)", fs.Arg(0))
	}
	return nil
}

// baseURL normalizes an -addr value into the client base URL.
func baseURL(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("missing -addr (host:port of a running scenariod)")
	}
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/"), nil
	}
	return "http://" + addr, nil
}

// serveCmd runs the daemon until SIGINT/SIGTERM.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	storeDir := fs.String("store", "", "content-addressed store directory (empty = in-memory cache)")
	shards := fs.Int("shards", 0, "queue worker count (0 = min(cores, 4))")
	workers := fs.Int("workers", 0, "per-simulation engine worker cap (0 = all cores)")
	remote := fs.String("remote", "", "shared-tier scenariod to front (host:port; empty = single tier)")
	remoteTimeout := fs.Duration("remote-timeout", 0, "per-call remote deadline (0 = 5s default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	remoteBase := ""
	if *remote != "" {
		rb, err := baseURL(*remote)
		if err != nil {
			return err
		}
		remoteBase = rb
	}
	d, err := service.New(service.Config{
		Addr: *addr, StoreDir: *storeDir,
		Remote: remoteBase, RemoteTimeout: *remoteTimeout,
		Shards: *shards, EngineWorkers: *workers,
	})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	// Scripts parse this line for the resolved ephemeral port; keep it on
	// stdout and keep the format stable.
	fmt.Printf("scenariod listening on %s (%s)\n", strings.TrimPrefix(d.BaseURL(), "http://"), d)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("scenariod: %v: shutting down\n", sig)
	if err := d.Stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("scenariod: clean shutdown")
	return nil
}

// readSpec loads one spec, decoded as strictly as the daemon decodes a
// submit, from a file or stdin ("-").
func readSpec(path string) (scenario.Spec, error) {
	var spec scenario.Spec
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		in = f
	}
	if err := scenario.DecodeStrict(in, &spec); err != nil {
		return spec, fmt.Errorf("decoding spec %s: %w", path, err)
	}
	return spec, nil
}

// printJSON pretty-prints one API response.
func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func submitCmd(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	specPath := fs.String("spec", "-", "spec JSON file (- for stdin)")
	wait := fs.Bool("wait", false, "block until the job completes")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	st, err := service.NewClient(base).Submit(context.Background(), spec, *wait)
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, st)
}

// runCmd runs one spec through scenario.Run, which validates it, and
// prints the status a daemon's fresh job answers: the spec's key, state
// done and the outcome.
func runCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "-", "spec JSON file (- for stdin)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	out, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	key, err := scenario.Key(spec)
	if err != nil {
		return err
	}
	return printJSON(w, service.JobStatus{Key: key, State: service.StateDone, Outcome: out})
}

func getCmd(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one KEY argument")
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	st, err := service.NewClient(base).Get(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, st)
}

func lsCmd(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	lr, err := service.NewClient(base).List(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("%d cell(s), %d in flight\n", len(lr.Cells), len(lr.Inflight))
	for _, c := range lr.Cells {
		fmt.Printf("  %s %-10s %-24s %d unit(s) %d bytes\n", c.Key, c.Kind, c.Name, c.Units, c.Size)
	}
	for _, j := range lr.Inflight {
		status := j.State
		if j.Error != "" {
			status += ": " + j.Error
		}
		fmt.Printf("  %s [%s]\n", j.Key, status)
	}
	return nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	sr, err := service.NewClient(base).Stats(context.Background())
	if err != nil {
		return err
	}
	return printJSON(os.Stdout, sr)
}
