package server

// The job table's bounds, for the external tests that fill them.
const (
	MaxActiveJobs = maxActiveJobs
	RetainJobs    = retainJobs
)
