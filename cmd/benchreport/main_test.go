package main

import "testing"

// TestParallelSpeedupNeedsSeveralCPUs pins that a Serial/Parallel pair
// yields parallel_speedup only when the host has more than one CPU: on one
// CPU the ratio measures scheduling noise, not sharding.
func TestParallelSpeedupNeedsSeveralCPUs(t *testing.T) {
	for _, tc := range []struct {
		numCPU int
		want   float64 // 0: no metric
	}{
		{numCPU: 1},
		{numCPU: 4, want: 2},
	} {
		rep := &Report{NumCPU: tc.numCPU, Benchmarks: []Benchmark{
			{Name: "BenchmarkClusterEpochSerial", Metrics: map[string]float64{"ns/op": 200}},
			{Name: "BenchmarkClusterEpochParallel", Metrics: map[string]float64{"ns/op": 100}},
		}}
		addDerivedMetrics(rep)
		got, ok := rep.Benchmarks[1].Metrics["parallel_speedup"]
		if ok != (tc.want != 0) || got != tc.want {
			t.Errorf("num_cpu %d: parallel_speedup = %v (present %v), want %v", tc.numCPU, got, ok, tc.want)
		}
	}
}
