//go:build race

package sim

// The race detector's instrumentation moves objects to the heap.
func init() { raceEnabled = true }
