//go:build !amd64

package main

// cpuModel is unknown off amd64: the brand string comes from CPUID.
func cpuModel() string { return "unknown" }
