// Command sessionbench is the repository's end-to-end session benchmark:
// one task's life — submit, RM admission, Figure-3 allocation, compose,
// first chunk, session report — on four workloads that stress different
// layers. See README.md for the workloads, the metrics and the traced
// mode.
//
//	go run . --workload sim-admit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object; the lines before
// it, prefixed "#", describe the host and each repetition.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// minReps is the fewest measured repetitions a run takes, however long
// they last.
const minReps = 2

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-admit, sim-churn, sim-dht or live-tcp")
	seed := flag.Uint64("seed", 1, "seed every input is drawn from")
	seconds := flag.Int("seconds", 10, "measuring time; repetitions run until it is spent")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "sessionbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res := run(os.Stdout, *w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run: a discarded warm-up repetition, then
// repetitions until budget is spent (alternating untraced and traced ones
// when traced is set). It checks every repetition and writes "#" lines to
// log.
func run(log io.Writer, w workload, seed uint64, budget time.Duration, traced bool) result {
	fingerprint(log)
	var fails []string
	attempted := 0
	take := func(tr bool) rep {
		r := w.run(seed, tr)
		attempted += r.Out.Tasks
		fails = append(fails, r.Fails...)
		fmt.Fprintf(log, "# rep traced=%t setup_s=%.4f wall_s=%.3f cpu_s=%.3f tasks=%d sessions=%d extra_outcomes=%d",
			tr, r.Setup, r.Wall, r.CPU, r.Out.Tasks, r.Out.Sessions, r.Out.Extra)
		if !w.sim {
			fmt.Fprintf(log, " offered_per_s=%.1f achieved_per_s=%.1f generator_lag_ms_max=%.2f",
				r.Live.OfferedRate, r.Live.AchievedRate, r.Live.LagMaxMs)
		}
		fmt.Fprintln(log)
		return r
	}
	warm := take(false)
	var plain, wrapped []rep
	start := time.Now()
	for len(plain) < minReps || time.Since(start) < budget {
		plain = append(plain, take(false))
		if traced {
			wrapped = append(wrapped, take(true))
		}
	}
	if w.sim {
		// A simulated repetition is a pure function of the seed, and the
		// wrappers of the traced run must not perturb it.
		for i, r := range append(append([]rep{warm}, plain...), wrapped...) {
			if r.Out != warm.Out {
				fails = append(fails, fmt.Sprintf("repetition %d diverged from the first: %+v vs %+v", i, r.Out, warm.Out))
			}
		}
	}
	for _, f := range fails {
		fmt.Fprintln(log, "# FAILED:", f)
	}
	res := result{Correct: len(fails) == 0, Attempted: attempted, Failed: len(fails), Metrics: map[string]metricValue{}}
	if traced {
		vals := perLayerMetrics(plain, wrapped)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
		return res
	}
	vals, timed := endToEndMetrics(w, plain)
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		if s, ok := timed[d.Name]; ok {
			fmt.Fprintf(log, "# %s %s best=%.6g median=%.6g over %d repetitions\n", d.Name, d.Unit, s.best, s.median, len(plain))
		}
	}
	return res
}

// fingerprint logs what a reader needs to tell a machine change from a
// code change.
func fingerprint(log io.Writer) {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fmt.Fprintf(log, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
