// Package recpkg is a replaysafe fixture: the test type-checks it as
// internal/live, so every function carrying the replay:recorded marker
// must stay off the wall clock.
package recpkg

import "time"

// epoch anchors nanotime; reading the clock at package init is outside
// any recorded path.
var epoch = time.Now()

// nanotime is the sanctioned accessor: unmarked, so its wall-clock
// read is not on a recorded path.
func nanotime() int64 { return int64(time.Since(epoch)) }

// latch pins the node clock through the sanctioned accessor
// (replay:recorded).
func latch() int64 {
	return nanotime()
}

// dispatch delivers one envelope and stamps it off the wall clock,
// which replay cannot reproduce (replay:recorded).
func dispatch() int64 {
	t := time.Now() // want `time\.Now on recorded delivery path dispatch`
	return t.UnixNano()
}

// age reports how stale an envelope is (replay:recorded).
func age(enq time.Time) time.Duration {
	return time.Since(enq) // want `time\.Since on recorded delivery path age`
}

// arm schedules a timer; the recorder logs each firing, so the
// constructor itself is legal on a recorded path (replay:recorded).
func arm(d time.Duration, fn func()) *time.Timer {
	return time.AfterFunc(d, fn)
}

// drain computes a diagnostics-only deadline; the deliberate crossing
// is annotated (replay:recorded).
func drain(deadline time.Time) time.Duration {
	//lint:ignore replaysafe — diagnostics-only value, never reaches actors
	return time.Until(deadline)
}

// flush pushes work into a closure; marked functions are scanned to
// full depth (replay:recorded).
func flush() int64 {
	f := func() int64 {
		return time.Now().UnixNano() // want `time\.Now on recorded delivery path flush`
	}
	return f()
}

// uptime is unmarked: not a recorded path, the wall clock is fine.
func uptime() time.Duration { return time.Since(time.Now()) }
