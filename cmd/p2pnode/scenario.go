package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/live"
	"repro/internal/scenario"
)

// runScenario executes a declarative scenario file on the live runtime
// (`p2pnode -scenario f.yaml`): the same file p2psim runs on the
// virtual clock maps here onto real goroutine nodes, the FaultInjector,
// and supervisor lifecycle. partSpec ("k/n") splits the fleet across n
// cooperating processes; peers lists every part's TCP listen address
// (comma-separated, index-aligned). pace > 1 compresses the scripted
// timeline. Exit 0 only when every assertion passed.
func runScenario(path, partSpec, peers string, pace float64, seed uint64, seedSet bool, reportPath, discovery string) int {
	spec, err := scenario.Load(path, discovery)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !seedSet || seed == 0 {
		seed = spec.Seed
	}
	plan, err := scenario.Expand(spec, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario %s: %v\n", path, err)
		return 1
	}

	opts := scenario.LiveOptions{Pace: pace, Hooks: wallClockHooks()}
	if partSpec != "" {
		part, parts, err := parsePart(partSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			return 1
		}
		opts.Part, opts.Parts = part, parts
		if parts > 1 {
			for _, a := range strings.Split(peers, ",") {
				if a = strings.TrimSpace(a); a != "" {
					opts.PartAddrs = append(opts.PartAddrs, a)
				}
			}
			if len(opts.PartAddrs) != parts {
				fmt.Fprintf(os.Stderr, "scenario: -scenario-part %s needs %d -scenario-peers addresses, got %d\n",
					partSpec, parts, len(opts.PartAddrs))
				return 1
			}
		}
	}

	rep, err := scenario.RunLive(plan, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario %s: %v\n", path, err)
		return 1
	}
	rep.Render(os.Stdout)
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario report: %v\n", err)
			return 1
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario report: %v\n", err)
			return 1
		}
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// parsePart splits "k/n" into (part k, parts n) with 0 <= k < n.
func parsePart(s string) (part, parts int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if ok {
		part, err = strconv.Atoi(a)
		if err == nil {
			parts, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil || parts < 1 || part < 0 || part >= parts {
		return 0, 0, fmt.Errorf("bad -scenario-part %q (want k/n with 0 <= k < n)", s)
	}
	return part, parts, nil
}

// wallClockHooks supplies the real process clocks the scenario engine
// refuses to read itself (internal/scenario is on the determinism lint
// list; the daemon is where wall time legitimately enters).
func wallClockHooks() scenario.LiveHooks {
	start := time.Now()
	return scenario.LiveHooks{
		NowMicros:   func() int64 { return time.Since(start).Microseconds() },
		SleepMicros: func(us int64) { time.Sleep(time.Duration(us) * time.Microsecond) },
		Nanotime:    live.Nanotime,
	}
}
