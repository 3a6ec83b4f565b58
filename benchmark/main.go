// Command benchmark is the repo's serving baseline: client submit →
// quorum-durable ack over a real 3-member replica.Node cluster on
// loopback TCP with real WAL and checkpoint directories, verified
// against a reference session, with a separate traced pass and an
// offline ladder that give every layer's share. It changes nothing in
// the program under test and claims no gain — it is the ruler.
//
//	go run . -workload churn -seed 3 -seconds 6 -trace 0   one pass, driver form
//	go run .                                               every workload, both passes
//	go run . -repeat 5 -out five.json                      five sets, quartiles
//	go run . -input five.json                              re-render a saved run
//	go run . -compare base.json new.json                   judge under the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the timed part
// of a pass is sized for on the reference host.
const runSeconds = 8

// driverSetups is how many clusters an untraced pass stands up when the
// driver runs it, so that setup_s is a median and not one sample. They
// wait out their boot leases side by side, so a spare costs its
// bootstraps and its teardown, not another five seconds.
const driverSetups = 2

func main() {
	workload := flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: every workload, both passes)")
	seed := flag.Int64("seed", 1, "seeds the graph, the update stream and the election splay")
	seconds := flag.Int("seconds", runSeconds, "timed length each workload is sized for; batch counts scale with it")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass and ladder (per-layer metrics)")
	repeat := flag.Int("repeat", 1, "run this many sets and report medians and quartiles")
	out := flag.String("out", "", "write the result file here (default <work>/result.json)")
	input := flag.String("input", "", "render this saved result file instead of running")
	cmp := flag.Bool("compare", false, "compare two saved result files: -compare base.json new.json")
	work := flag.String("work", ".bench_work", "scratch directory for WAL, checkpoint and span files; must be on a real disk")
	flag.Parse()

	var err error
	switch {
	case *cmp:
		err = runCompare(flag.Args(), *out)
	case *input != "":
		var rf *resultFile
		if rf, err = readResultFile(*input); err == nil {
			rf.render(os.Stdout)
		}
	case *workload != "":
		err = runDriver(*workload, *seed, *seconds, *trace, *work)
	default:
		err = runSets(*seed, *seconds, *repeat, *work, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// scratch makes a fresh directory for one pass under the work
// directory, refusing a work directory that is not on a real disk.
func scratch(work string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	if _, err := requireDisk(work); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, "pass-")
}

// runPass measures one pass of one workload in a fresh scratch
// directory, removed afterwards.
func runPass(in *inputs, traced bool, setups int, work string) (*measurement, error) {
	dir, err := scratch(work)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if traced {
		spans := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", in.Spec.Name, in.Seed))
		return runTraced(in, dir, spans)
	}
	return runUntraced(in, dir, setups)
}

// runDriver is the acceptance driver's form: one workload, one pass,
// every metric printed by name, then the result as one JSON line. A
// failed correctness gate still prints the line, then exits non-zero.
func runDriver(name string, seed int64, seconds, trace int, work string) error {
	spec, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	in, err := generate(spec.scaled(seconds), seed)
	if err != nil {
		return err
	}
	printed, sent := endToEnd, gatedEndToEnd()
	if trace == 1 {
		printed, sent = perLayer, perLayer
	}
	m, err := runPass(in, trace == 1, driverSetups, work)
	if err != nil {
		return err
	}
	printMeasurement(os.Stdout, m, printed)
	fmt.Println(driverLine(m, sent))
	if !m.Correct {
		return fmt.Errorf("%s: state_mismatch: %s", name, m.Mismatch)
	}
	return nil
}

// runSets runs every workload, untraced then traced, repeat times, and
// prints and saves the result. Any failed correctness gate makes the
// exit non-zero after everything has been reported.
func runSets(seed int64, seconds, repeat int, work, out string) error {
	if out == "" {
		out = filepath.Join(work, "result.json")
	}
	dir, err := scratch(work)
	if err != nil {
		return err
	}
	probe, err := probeHost(dir)
	os.RemoveAll(dir)
	if err != nil {
		return err
	}
	host, err := describeHost(work, probe)
	if err != nil {
		return err
	}
	rf := &resultFile{Host: host, Seed: seed, Seconds: seconds}
	var mismatched []string
	for set := 0; set < repeat; set++ {
		var results []workloadResult
		for _, spec := range workloads {
			fmt.Fprintf(os.Stderr, "set %d/%d: %s\n", set+1, repeat, spec.Name)
			in, err := generate(spec.scaled(seconds), seed)
			if err != nil {
				return err
			}
			wr := workloadResult{Workload: spec.Name}
			if wr.EndToEnd, err = runPass(in, false, 1, work); err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			if wr.PerLayer, err = runPass(in, true, 1, work); err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			for _, m := range []*measurement{wr.EndToEnd, wr.PerLayer} {
				if !m.Correct {
					mismatched = append(mismatched, fmt.Sprintf("%s: %s", spec.Name, m.Mismatch))
				}
			}
			results = append(results, wr)
			runtime.GC() // drop this workload's graphs before the next one's heap_live_mb
		}
		rf.Sets = append(rf.Sets, results)
	}
	rf.render(os.Stdout)
	if err := rf.write(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "result file: %s\n", out)
	if len(mismatched) > 0 {
		return fmt.Errorf("state_mismatch: %v", mismatched)
	}
	return nil
}

// runCompare judges new against base and prints the rows as markdown,
// also as JSON when -out is given. A regressed or unresolved gated row
// makes the exit non-zero; advisory rows (the timings) are reported
// only.
func runCompare(files []string, out string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(files))
	}
	base, err := readResultFile(files[0])
	if err != nil {
		return err
	}
	next, err := readResultFile(files[1])
	if err != nil {
		return err
	}
	vs := compare(base, next)
	renderVerdicts(os.Stdout, vs)
	if out != "" {
		data, err := json.MarshalIndent(vs, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	bad := 0
	for _, v := range vs {
		if v.Gated && v.Verdict != "ok" {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d gated rows are regressed or unresolved", bad)
	}
	return nil
}
