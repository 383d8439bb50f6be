// Command spgemmload is the workload harness for the spgemmd serving
// layer: it compiles declarative workload specs into deterministic request
// streams, drives them against a live server (external or in-process),
// records request traces, and scores the outcomes against per-class SLOs.
//
//	spgemmload gen -spec wl.json                 # inspect the compiled stream
//	spgemmload run -spec wl.json -self -trace t.jsonl
//	spgemmload run -spec wl.json -target http://localhost:8447
//	spgemmload score -trace t.jsonl -spec wl.json
//	spgemmload check -report rep.json -schema workload/testdata/fitness_schema.json
//
// Scoring is deterministic: the same trace and spec always render
// byte-identical fitness reports, which is what makes the reports
// diffable in CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/blockreorg/blockreorg/server"
	"github.com/blockreorg/blockreorg/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "score":
		err = cmdScore(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "spgemmload: unknown verb %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spgemmload: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: spgemmload <verb> [flags]

verbs:
  gen    compile a workload spec and dump the request stream
  run    drive a compiled stream against a live server, recording a trace
  score  score a recorded trace as-is against a spec's SLOs
  check  validate a fitness report against a schema golden (CI gate)

run 'spgemmload <verb> -h' for the verb's flags.
`)
}

// output opens the -o target: "-" or "" is stdout.
func output(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// loadTrace reads a JSONL trace file.
func loadTrace(path string) ([]workload.Record, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -trace")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

// writeReport renders a fitness report to the -o target.
func writeReport(rep *workload.FitnessReport, out string) error {
	w, err := output(out)
	if err != nil {
		return err
	}
	defer w.Close()
	return rep.WriteJSON(w)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	specPath := fs.String("spec", "", "workload spec (JSON)")
	out := fs.String("o", "-", "output file (- for stdout)")
	fs.Parse(args)
	if *specPath == "" {
		return fmt.Errorf("missing -spec")
	}
	spec, err := workload.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	reqs, err := workload.Compile(spec)
	if err != nil {
		return err
	}
	w, err := output(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"spec":     spec.Name,
		"seed":     spec.Seed,
		"requests": reqs,
	})
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "workload spec (JSON)")
	target := fs.String("target", "", "base URL of a running spgemmd (e.g. http://localhost:8447)")
	self := fs.Bool("self", false, "serve in-process instead of targeting a live spgemmd")
	workers := fs.Int("workers", 2, "worker pool size for -self")
	queueDepth := fs.Int("queue", 64, "admission queue depth for -self")
	speed := fs.Float64("speed", 1, "timeline compression (2 = twice the arrival rate)")
	tracePath := fs.String("trace", "", "record the client-observed trace to this JSONL file")
	out := fs.String("o", "-", "fitness report output (- for stdout)")
	timeout := fs.Duration("request-timeout", 0, "per-request timeout (0: server default)")
	fs.Parse(args)
	if *specPath == "" {
		return fmt.Errorf("missing -spec")
	}
	if *self == (*target != "") {
		return fmt.Errorf("pick exactly one of -self and -target")
	}
	spec, err := workload.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	reqs, err := workload.Compile(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spgemmload: compiled %d requests over %gs (%d classes)\n",
		len(reqs), spec.DurationSeconds, len(spec.Classes))

	base := *target
	if *self {
		srv, err := server.New(server.Config{Workers: *workers, QueueDepth: *queueDepth}, nil)
		if err != nil {
			return err
		}
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		serveErr := make(chan error, 1)
		go func() { serveErr <- httpSrv.Serve(ln) }()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "spgemmload: in-process spgemmd on %s (%d workers)\n", base, *workers)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			httpSrv.Shutdown(ctx)
			<-serveErr // Serve has returned (ErrServerClosed)
			ln.Close()
		}()
	}

	records, err := run(context.Background(), &server.Client{Base: base}, reqs, runOptions{
		Speed:          *speed,
		RequestTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		tw := workload.NewTraceWriter(f)
		for _, r := range records {
			if err := tw.Append(r); err != nil {
				f.Close()
				return err
			}
		}
		if err := tw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spgemmload: recorded %d requests to %s\n", len(records), *tracePath)
	}
	return writeReport(workload.Score(records, spec, "live"), *out)
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	tracePath := fs.String("trace", "", "recorded trace (JSONL)")
	specPath := fs.String("spec", "", "workload spec for SLO scoring (optional)")
	out := fs.String("o", "-", "fitness report output (- for stdout)")
	fs.Parse(args)
	recs, err := loadTrace(*tracePath)
	if err != nil {
		return err
	}
	var spec *workload.Spec // nil scores spec-free
	if *specPath != "" {
		if spec, err = workload.LoadSpec(*specPath); err != nil {
			return err
		}
	}
	return writeReport(workload.Score(recs, spec, "trace"), *out)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	reportPath := fs.String("report", "", "fitness report to validate")
	schemaPath := fs.String("schema", "", "schema golden (sorted JSON key paths)")
	fs.Parse(args)
	if *reportPath == "" || *schemaPath == "" {
		return fmt.Errorf("need both -report and -schema")
	}
	report, err := os.ReadFile(*reportPath)
	if err != nil {
		return err
	}
	schema, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	var allowed []string
	if err := json.Unmarshal(schema, &allowed); err != nil {
		return fmt.Errorf("parsing schema golden: %w", err)
	}
	if err := workload.CheckSchema(report, allowed); err != nil {
		return err
	}
	// The report must also decode as a fitness report with sane invariants.
	rep, err := workload.ReadReport(report)
	if err != nil {
		return err
	}
	if rep.Fitness < 0 || rep.Fitness > 1 {
		return fmt.Errorf("fitness %g outside [0, 1]", rep.Fitness)
	}
	if rep.Requests < 0 {
		return fmt.Errorf("negative request count %d", rep.Requests)
	}
	fmt.Fprintf(os.Stderr, "spgemmload: %s conforms to %s (%d requests, fitness %g)\n",
		*reportPath, *schemaPath, rep.Requests, rep.Fitness)
	return nil
}
