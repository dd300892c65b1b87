// Command perfbench is streamsched's end-to-end benchmark. It generates a
// seeded workload, drives a real streamschedd over loopback HTTP (or runs
// the Fig. 3a campaign in-process), checks every output against an
// in-process reference, and prints one JSON result line:
//
//	perfbench --workload solve-miss --seed 1 --seconds 18 --trace 0
//	perfbench report [-runs 5] [-seed 1] [-seconds 18]
//
// Run it through perfbench/run.sh from the repository root, which builds
// streamschedd and this command first; see perfbench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "campaign":
			os.Exit(campaignMain(os.Args[2:]))
		case "report":
			os.Exit(reportMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// runMain is one benchmark run.
func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: solve-miss, solve-hit, replan-sim or fig3a")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 18, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced per-layer run, 0: end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rc := runConfig{
		spec:      sp,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		daemonBin: os.Getenv("PERFBENCH_DAEMON"),
		outDir:    os.Getenv("PERFBENCH_OUT"),
	}
	if rc.outDir == "" {
		rc.outDir = ".bench_build"
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

// run dispatches one run.
func run(rc runConfig) (*result, error) {
	if rc.spec.name == "fig3a" {
		if rc.trace {
			return runFig3aTraced(rc)
		}
		return runFig3a(rc)
	}
	if rc.daemonBin == "" {
		return nil, fmt.Errorf("PERFBENCH_DAEMON is not set: run perfbench/run.sh")
	}
	w, err := generate(rc.spec, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return runServiceTraced(rc, w)
	}
	return runService(rc, w)
}
