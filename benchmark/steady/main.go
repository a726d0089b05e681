// Command steady is the benchmark's steadiness report: it runs one
// workload with several seeds and prints, for every metric, the median,
// the quartiles (as Python's statistics.quantiles(values, n=4) computes
// them), the extremes and the spread (IQR over median). Each run is an
// untraced run of run.sh; its report line, on standard error, passes
// through. From the repository's root:
//
//	go -C benchmark run ./steady -workload cluster-open -runs 10
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4), whose default
// method is "exclusive".
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func main() {
	workload := flag.String("workload", "tree-batch", "workload to run")
	runs := flag.Int("runs", 10, "runs, one seed each")
	first := flag.Int64("seed", 1, "first seed; run i uses seed+i")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	flag.Parse()

	values := map[string][]float64{}
	units := map[string]string{}
	shares := map[string]bool{}
	for i := 0; i < *runs; i++ {
		seed := *first + int64(i)
		cmd := exec.Command("bash", "run.sh", "--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "seed %d: bad result line %q\n", seed, last)
			os.Exit(1)
		}
		shares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
		fmt.Fprintf(os.Stderr, "seed %d: attempted %d failed %d\n", seed, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs, seeds %d..%d, %d s each\n", *workload, *runs, *first, *first+int64(*runs)-1, *seconds)
	fmt.Printf("%-32s %-10s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Printf("%-32s %-10s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f\n", name, units[name], q2, q1, q3, lo, hi, spread)
	}
	fmt.Printf("failed/attempted per run: %v\n", keys(shares))
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
