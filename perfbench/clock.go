package main

import "time"

// epoch anchors hostNow so every reading is a monotonic-clock offset.
var epoch = time.Now() //klebvet:allow walltime -- the benchmark measures host time by design; this is its only clock anchor

// hostNow returns host nanoseconds since start-up from the monotonic
// clock. It is the benchmark's single host-clock seam: every timing in
// this package goes through it, and none of its readings ever reaches a
// simulated run's inputs.
func hostNow() int64 {
	return int64(time.Since(epoch)) //klebvet:allow walltime -- host-time measurement is this benchmark's purpose; readings never feed simulator inputs
}

// seconds converts a hostNow interval to seconds.
func seconds(from, to int64) float64 { return float64(to-from) / 1e9 }

// pause yields the CPU for about a millisecond between polls.
func pause() {
	time.Sleep(time.Millisecond) //klebvet:allow walltime -- polling a running fleet's Status from the benchmark's own goroutine; no simulated run waits on it
}
