package main

// report: runs every workload several times and prints, per workload,
// each end-to-end metric's median and quartiles across runs, then one
// "where the time goes" table of per-layer self time from a traced run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the spread the benchmark's bounds are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

// runOnce executes one benchmark run and returns its result and the
// comment lines it printed.
func runOnce(exe, workload string, seed uint64, seconds float64, trace int) (*result, []string, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var notes []string
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "#") {
			notes = append(notes, line)
		} else if line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, notes, nil
}

func reportMain(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "end-to-end runs per workload, seeds seed..seed+runs-1")
	seed := fs.Uint64("seed", defaultSeed, "first seed")
	seconds := fs.Float64("seconds", 18, "measured seconds per run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench report:", err)
		return 1
	}
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	layers := make(map[string]map[string]float64)
	for _, name := range names {
		vals := make(map[string][]float64)
		attempted, failed, incorrect := 0, 0, 0
		var notes []string
		for i := 0; i < *runs; i++ {
			res, n, err := runOnce(exe, name, *seed+uint64(i), *seconds, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench report:", err)
				return 1
			}
			notes = append(notes, n...)
			attempted += res.Attempted
			failed += res.Failed
			if !res.Correct {
				incorrect++
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
		fmt.Printf("== %s: %d runs (seeds %d..%d), %d requests attempted, %d failed, %d incorrect runs\n",
			name, *runs, *seed, *seed+uint64(*runs)-1, attempted, failed, incorrect)
		for _, n := range notes {
			fmt.Println(n)
		}
		fmt.Printf("%-24s %-9s %14s %14s %14s %9s %4s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "n")
		for _, d := range endToEnd {
			xs := vals[d.name]
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("%-24s %-9s %14.6g %14.6g %14.6g %9.3f %4d\n", d.name, d.unit, q2, q1, q3, spread, len(xs))
		}
		fmt.Println()
		res, _, err := runOnce(exe, name, *seed, *seconds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			return 1
		}
		layers[name] = make(map[string]float64)
		for k, m := range res.Metrics {
			layers[name][k] = m.Value
		}
	}
	printWhereTimeGoes(*seed, names, layers)
	return 0
}

// printWhereTimeGoes prints per-layer mean self time per operation (a
// request; for fig3a a scheduling request of the campaign) for every
// workload, then every other per-layer metric.
func printWhereTimeGoes(seed uint64, names []string, layers map[string]map[string]float64) {
	fmt.Printf("== where the time goes (traced run, seed %d): mean self time per operation\n", seed)
	header := func() {
		fmt.Printf("%-36s", "layer")
		for _, n := range names {
			fmt.Printf(" %12s", n)
		}
		fmt.Println()
	}
	header()
	row := func(label string, f func(m map[string]float64) float64) {
		fmt.Printf("%-36s", label)
		for _, n := range names {
			fmt.Printf(" %12.4g", f(layers[n]))
		}
		fmt.Println()
	}
	timed := make(map[string]bool)
	for _, s := range layerSpans {
		name := s + "_ms"
		timed[name] = true
		row(name, func(m map[string]float64) float64 { return m[name] })
	}
	timed["http.other_ms"] = true
	row("http.other_ms", func(m map[string]float64) float64 { return m["http.other_ms"] })
	row("total_ms", func(m map[string]float64) float64 {
		t := m["http.other_ms"]
		for _, s := range layerSpans {
			t += m[s+"_ms"]
		}
		return t
	})
	fmt.Println()
	fmt.Println("== other per-layer metrics (traced run)")
	header()
	for _, d := range perLayer {
		if timed[d.name] {
			continue
		}
		name := d.name
		row(name+" ("+d.unit+")", func(m map[string]float64) float64 { return m[name] })
	}
}
