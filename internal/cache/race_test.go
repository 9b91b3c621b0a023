//go:build race

package cache

// The race detector's instrumentation moves the read buffer to the heap.
func init() { raceEnabled = true }
