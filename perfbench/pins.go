package main

// pins holds each workload's fingerprint at defaultSeed: the dataset
// fingerprint of the first study for the study workloads, and for
// service_mix the combined fingerprint of its tenants (see
// combineFingerprints). A run at defaultSeed checks its outputs against
// these.
var pins = map[string]uint64{
	"bench_study": 0xa9e080120dce6510,
	"paper_cold":  0x7a1c81014737f235,
	"service_mix": 0x5c4d164adc21449,
}

// mix derives the i-th input seed from a benchmark seed (splitmix64), so
// neighbouring or zero seeds still give well-mixed, distinct inputs.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
