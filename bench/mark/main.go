// Command mark is beaglemark, the repository's measured benchmark: six
// workloads, six bounded end-to-end metrics plus the failed ratio, and
// per-layer probes, described by
// BENCHMARK.json at the repository root and documented in README.md beside
// this file.
//
//	go run ./bench/mark                       # every workload, one record
//	go run ./bench/mark -workload codon -seed 3 -seconds 10 -trace 0
//	go run ./bench/mark -trace 1              # per-layer metrics + trace.json
//	go run ./bench/mark -compare a.json b.json
//
// It drives the product only through exported functions and carries its own
// input generator, load generator, percentile, flop count and JSON code.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

//go:embed expected.json
var embeddedExpected []byte

// minRounds is the fewest rounds a metric's median may rest on.
const minRounds = 5

// options are the command's flags.
type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	rounds    int
	trace     bool
	out       string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "comma-separated workloads to run (default: all of "+strings.Join(workloadNames(), ",")+")")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per workload, split evenly over the rounds")
	rounds := fs.Int("rounds", 7, "rounds per workload (at least 5); a metric's value is the median of its per-round values")
	traceFlag := fs.Int("trace", 0, "1: traced run — harness spans, layer probes, per-layer metrics, bench/mark/out/trace.json")
	out := fs.String("out", "bench/mark/out/result.json", "where to write the JSON record")
	compare := fs.Bool("compare", false, "compare two records: -compare a.json b.json")
	describe := fs.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *describe:
		fmt.Fprintln(stdout, describeJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: mark -compare a.json b.json")
			return 2
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	opt := options{seed: *seed, seconds: *seconds, rounds: *rounds, trace: *traceFlag != 0, out: *out}
	if opt.rounds < minRounds {
		fmt.Fprintf(stderr, "mark: -rounds %d is below the minimum of %d\n", opt.rounds, minRounds)
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "mark: -seconds must be positive")
		return 2
	}
	opt.workloads = workloadNames()
	if *workloadFlag != "" {
		opt.workloads = strings.Split(*workloadFlag, ",")
		for _, n := range opt.workloads {
			if findWorkload(n) == nil {
				fmt.Fprintf(stderr, "mark: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
				return 2
			}
		}
	}
	rec, err := measure(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mark:", err)
		return 1
	}
	rec.print(stdout)
	if opt.out != "" {
		if err := rec.write(opt.out); err != nil {
			fmt.Fprintln(stderr, "mark:", err)
			return 1
		}
	}
	if len(opt.workloads) == 1 {
		// The acceptance driver runs one workload at a time and reads this
		// line, the last on standard output.
		fmt.Fprintln(stdout, rec.driverLine(opt.workloads[0], opt.trace))
	}
	if rec.failed() > 0 {
		fmt.Fprintf(stderr, "mark: %d of %d checked results were wrong or failed\n", rec.failed(), rec.attempted())
		return 1
	}
	return 0
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// running is one selected workload with its rounds so far.
type running struct {
	name     string
	w        workload
	warm     roundResult // the discarded first round; only its checks count
	untraced []roundResult
	traced   []roundResult
	pinErr   string
}

// measure prepares every selected workload, runs the rounds round-robin
// across workloads — so a disturbance of a few seconds lands on one round of
// each instead of on all rounds of one — and builds the record.
func measure(opt options, stderr io.Writer) (*record, error) {
	var pins expectedFile
	if err := json.Unmarshal(embeddedExpected, &pins); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	// A traced run spends three tenths of the budget on the workloads' own
	// rounds (three untraced, two traced) and the rest on the layer probes.
	rounds, traced := opt.rounds, map[int]bool{}
	roundDur := time.Duration(opt.seconds / float64(opt.rounds) * float64(time.Second))
	if opt.trace {
		rounds, traced = 5, map[int]bool{1: true, 3: true}
		roundDur = time.Duration(opt.seconds * 0.3 / 5 * float64(time.Second))
	}
	var runs []*running
	for _, name := range opt.workloads {
		r := &running{name: name, w: findWorkload(name).make()}
		if err := r.w.prepare(opt.seed, roundDur); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", name, err)
		}
		if opt.seed == 1 {
			r.pinErr = pins.check(name, r.w.pinned())
			if r.pinErr != "" {
				fmt.Fprintf(stderr, "mark: %s: %s\n", name, r.pinErr)
			}
		}
		runs = append(runs, r)
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	// A process's first round pays for growing the heap from the operating
	// system and reads 10–50 % slow; it is run short and not measured.
	for _, r := range runs {
		var err error
		if r.warm, err = r.w.round(roundDur/4, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up round: %w", r.name, err)
		}
	}
	for i := 0; i < rounds; i++ {
		for _, r := range runs {
			var ln *lane
			if traced[i] {
				ln = tr.newLane(r.name)
			}
			res, err := r.w.round(roundDur, ln)
			if err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", r.name, i, err)
			}
			if traced[i] {
				r.traced = append(r.traced, res)
			} else {
				r.untraced = append(r.untraced, res)
			}
		}
	}
	rec := newRecord(opt)
	for _, r := range runs {
		rec.addWorkload(r)
	}
	if opt.trace {
		budget := time.Duration(opt.seconds * 0.7 * float64(time.Second))
		pr := &prober{seed: opt.seed, tr: tr, runs: runs}
		values, err := pr.run(budget)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		rec.addProbes(values, pr.attempted, pr.failed)
		path := filepath.Join(filepath.Dir(opt.out), "trace.json")
		if opt.out == "" {
			path = "bench/mark/out/trace.json"
		}
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// expectedFile is expected.json: per workload, the seed-1 input digest and
// reference values.
type expectedFile map[string]pinnedEntry

// check compares a workload's generated inputs and reference values with the
// pinned ones; it returns "" when they agree.
func (e expectedFile) check(name string, got pinnedEntry) string {
	want, ok := e[name]
	if !ok {
		return "no pinned entry in expected.json"
	}
	if want.Digest != got.Digest {
		return fmt.Sprintf("input digest %s differs from the pinned %s: the generator changed", got.Digest, want.Digest)
	}
	if len(want.Values) != len(got.Values) {
		return fmt.Sprintf("%d reference values, %d pinned", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if relErr(got.Values[i], want.Values[i]) > 1e-9 {
			return fmt.Sprintf("reference value %d is %v, pinned %v", i, got.Values[i], want.Values[i])
		}
	}
	return ""
}
