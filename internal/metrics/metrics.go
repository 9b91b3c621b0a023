// Package metrics computes the multiprogrammed-workload performance
// metrics of §7.1: system throughput as weighted speedup, job turnaround
// time as harmonic speedup, and fairness as maximum slowdown.
package metrics

// PerCore holds one core's performance in two runs of the same
// workload: the reference (baseline) and the evaluated configuration.
type PerCore struct {
	BaselineIPC float64
	IPC         float64
}

// Slowdown returns BaselineIPC / IPC (>= 1 when the configuration is
// slower than the baseline).
func (p PerCore) Slowdown() float64 {
	if p.IPC <= 0 {
		return 0
	}
	return p.BaselineIPC / p.IPC
}

// WeightedSpeedup returns the weighted speedup of the configuration,
// normalized to the baseline run of the same mix: mean over cores of
// IPC_i / IPC_baseline_i. A defense-free system scores 1.0.
func WeightedSpeedup(cores []PerCore) float64 {
	if len(cores) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cores {
		if c.BaselineIPC > 0 {
			sum += c.IPC / c.BaselineIPC
		}
	}
	return sum / float64(len(cores))
}

// HarmonicSpeedup returns the harmonic mean of the per-core normalized
// IPCs, the turnaround-oriented counterpart of WeightedSpeedup.
func HarmonicSpeedup(cores []PerCore) float64 {
	if len(cores) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cores {
		s := c.Slowdown()
		if s <= 0 {
			return 0
		}
		sum += s
	}
	return float64(len(cores)) / sum
}

// MaxSlowdown returns the largest per-core slowdown (the paper's
// unfairness metric; higher is worse).
func MaxSlowdown(cores []PerCore) float64 {
	max := 0.0
	for _, c := range cores {
		if s := c.Slowdown(); s > max {
			max = s
		}
	}
	return max
}
