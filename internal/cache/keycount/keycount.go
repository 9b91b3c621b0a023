// Package keycount is test support: it counts how often cache.Key runs,
// with no hook in production code. The campaign routes promise one key
// derivation per cell per process; a derivation costs one small
// allocation, far too little for an allocation budget over a whole pass
// to resolve, so the count is read from the runtime's memory profile
// instead — at sampling rate 1 it records every allocation with its call
// stack. No binary may import this package (CI greps `go list -deps`).
package keycount

import "runtime"

const keyFunc = "svard/internal/cache.Key"

// During runs f and returns how many heap objects were allocated with
// cache.Key on the stack while it ran, on any goroutine. A derivation
// allocates the same objects every time for a given configuration (the
// returned string, plus buffer growth only if the encoding outgrows
// Key's stack buffer), so callers calibrate with During around a single
// cache.Key call and compare multiples. It changes
// runtime.MemProfileRate while it runs: not for parallel tests.
func During(f func()) int64 {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	before := allocatedUnderKey()
	f()
	return allocatedUnderKey() - before
}

func allocatedUnderKey() int64 {
	runtime.GC() // publishes every allocation made so far to the profile
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var objects int64
	for _, r := range recs[:n] {
		for frames := runtime.CallersFrames(r.Stack()); ; {
			frame, more := frames.Next()
			if frame.Function == keyFunc {
				objects += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return objects
}
