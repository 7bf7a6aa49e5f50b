// Package sim provides the deterministic discrete-event simulation kernel
// used by every other subsystem: a virtual clock, an event scheduler with
// FIFO tie-breaking, and seeded random-number streams.
//
// There is one way to schedule an event: Scheduler.At or After, with a
// Task and an integer argument; the returned TaskHandle is for Cancel.
//
// The kernel is single-threaded by design: a simulation run is a pure
// function of its configuration (including the seed), which makes runs
// reproducible bit-for-bit. Parallelism belongs one level up, where
// independent runs are dispatched onto worker goroutines.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds from the start of
// the simulation. Integer nanoseconds (rather than float64 seconds) keep
// event ordering exact and platform-independent.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Duration.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Micros converts a floating-point number of microseconds to a Duration.
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// String formats the duration as seconds with microsecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }
