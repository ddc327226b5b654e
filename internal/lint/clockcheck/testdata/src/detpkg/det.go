// Package core is a deterministic-package fixture: its import path ends
// in internal/core, so clockcheck applies.
package core

import (
	"math/rand"
	"time"
)

// allocateLikeRM reproduces the shape of the rm.go regression: timing an
// allocation with the wall clock from a sim-reachable path.
func allocateLikeRM() int64 {
	started := time.Now() // want `time\.Now reads wall clock`
	work()
	return int64(time.Since(started)) // want `time\.Since reads wall clock`
}

func work() {}

func waits() {
	time.Sleep(5)                   // want `time\.Sleep reads wall clock`
	<-time.After(5)                 // want `time\.After reads wall clock`
	_ = time.Until(time.Unix(0, 0)) // want `time\.Until reads wall clock`
}

func randomness() {
	_ = rand.Intn(7)   // want `rand\.Intn reads global randomness`
	_ = rand.Float64() // want `rand\.Float64 reads global randomness`
	r := rand.New(42)
	_ = r.Intn(7) // methods on an injected stream are fine
}

// conversionsAreFine: constructors and arithmetic never observe the
// environment.
func conversionsAreFine() {
	t := time.Unix(3, 0)
	u := time.Unix(4, 0)
	_ = u.Sub(t)
}

func escapeHatch() {
	//lint:ignore clockcheck — boundary fixture: pretend live-runtime edge
	_ = time.Now()
	_ = time.Now() //lint:ignore clockcheck — same-line form
}
