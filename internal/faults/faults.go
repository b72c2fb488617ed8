// Package faults is a dependency-free failpoint registry for fault-injection
// testing. Production code threads named hooks through its critical sections
// (`faults.Do("wal.append")`); tests arm them to return an error N times,
// and the hammer drives the system through the failure. When nothing is
// armed the cost of a hook is one atomic load, so the hooks stay compiled
// into release builds.
//
// The registry is global: failpoints are addressed by name, not by instance,
// which keeps the arming side decoupled from the code under test. Tests that
// arm failpoints must Reset on cleanup and must not run in parallel with
// other fault-armed tests against shared names.
package faults

import (
	"sync"
	"sync/atomic"
)

// Action describes what an armed failpoint does when hit.
type Action struct {
	// Err is returned from Do.
	Err error
	// Remaining caps how many hits trigger the action; each hit counts it
	// down and the failpoint disarms itself at zero. Zero or negative
	// means unlimited.
	Remaining int64
}

var (
	mu     sync.Mutex
	points map[string]*Action
	armed  atomic.Int64 // number of armed failpoints; fast-path gate
)

// Arm installs (or replaces) the action for a named failpoint.
func Arm(name string, a Action) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*Action)
	}
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	cp := a
	points[name] = &cp
}

// Reset disarms every failpoint. Tests call it in cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	if n := len(points); n > 0 {
		points = nil
		armed.Add(-int64(n))
	}
}

// Do triggers the named failpoint. Disarmed (the overwhelmingly common
// case) it is a single atomic load returning nil.
func Do(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return nil
	}
	if p.Remaining > 0 {
		p.Remaining--
		if p.Remaining == 0 {
			delete(points, name)
			armed.Add(-1)
		}
	}
	return p.Err
}
