package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// calibrate runs the workload n times, each in a fresh process with its own
// seed, and prints every end-to-end metric's median, quartiles, spread
// (quartile distance over median) and largest deviation from the median,
// next to its bound in BENCHMARK.json. A metric is steady enough when its
// spread stays below a third of its bound.
func calibrate(w workload, o options, n int, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64), "-trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d outputs wrong", seed, res.Failed, res.Attempted)
		}
		fmt.Fprintf(out, "run %d seed %d:", i+1, seed)
		for _, s := range endToEnd {
			v := res.Metrics[s.name].Value
			values[s.name] = append(values[s.name], v)
			fmt.Fprintf(out, " %s=%.4g", s.name, v)
		}
		fmt.Fprintln(out)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tspread\tmax_dev\tbound\tsteady")
	for _, s := range endToEnd {
		vs := values[s.name]
		if len(vs) < 2 {
			return fmt.Errorf("-repeat needs at least 2 runs")
		}
		q, err := quartiles(vs)
		if err != nil {
			return err
		}
		maxDev := 0.0
		for _, v := range vs {
			maxDev = math.Max(maxDev, math.Abs(v-q[1])/q[1])
		}
		spread := (q[2] - q[0]) / q[1]
		bound, steady := "-", "-"
		if b, ok := bounds[s.name]; ok {
			bound = fmt.Sprintf("%.3f", b)
			steady = fmt.Sprint(spread < b/3)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.4f\t%.4f\t%s\t%s\n",
			s.name, s.unit, q[1], q[0], q[2], spread, maxDev, bound, steady)
	}
	return tw.Flush()
}

var errNoResult = errors.New("no result line")

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return nil, errNoResult
	}
	return &res, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func readBounds(path string) (map[string]float64, error) {
	f, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
