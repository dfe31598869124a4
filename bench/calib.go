package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// calibrator runs a fixed kernel of standard-library work shaped like the
// platform's — sorting a fleet of floats, string-keyed map updates, float
// parsing and formatting, a small JSON encode, short-lived allocations —
// and reports how long it took. It is the harness's own code and never
// changes with the program under test, so its time says how fast the machine
// was during a run: on a shared host that varies by a third from one minute
// to the next, and every result records it.
type calibrator struct {
	floats  []float64
	scratch []float64
	keys    []string
	m       map[string]float64
	buf     []byte
	sink    int
}

func newCalibrator() *calibrator {
	c := &calibrator{floats: make([]float64, 1000), scratch: make([]float64, 1000), m: map[string]float64{}}
	for i := range c.floats {
		c.floats[i] = float64(mix(1, uint64(i), 2, 3)%100_000) / 1e5
	}
	for i := 0; i < 200; i++ {
		c.keys = append(c.keys, deviceID(i))
	}
	return c
}

const clockThreadCPUTime = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// run executes the kernel once and returns the thread CPU time it took, in
// µs. The calling goroutine must be locked to its OS thread.
func (c *calibrator) run() float64 {
	c0 := threadCPU()
	for round := 0; round < 3; round++ {
		copy(c.scratch, c.floats)
		sort.Float64s(c.scratch)
		for i, k := range c.keys {
			c.m[k] = c.scratch[i] + float64(round)
		}
		for i := 0; i < 100; i++ {
			c.buf = strconv.AppendFloat(c.buf[:0], c.scratch[i*7], 'g', -1, 64)
			v, _ := strconv.ParseFloat(string(c.buf), 64)
			c.sink += int(v * 10)
		}
		raw, _ := json.Marshal(map[string]any{"id": c.keys[round], "value": c.scratch[500], "n": len(c.m)})
		c.sink += len(raw)
		for i := 0; i < 50; i++ {
			b := make([]byte, 256)
			c.sink += len(b)
		}
	}
	return float64(threadCPU()-c0) / 1e3
}
