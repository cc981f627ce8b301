package main

import (
	"syscall"
	"time"
)

// The gated cost metrics count the process's CPU time, not wall time. On
// a shared host wall time drifts from minute to minute as the hypervisor
// takes the vCPUs away (steal) and other work queues beside the
// benchmark; CPU time leaves out the time the process waits, stolen or on
// a run queue (the kernel keeps steal out of task CPU time), so it moves
// with the work the system does rather than with the neighbours. The wall
// figures are still printed on the detail line.

// processCPU is the user and system CPU time every thread of the process
// has used, with microsecond resolution.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuCost is one round's CPU accounting: set-up, and the measured phase
// with the operations it completed.
type cpuCost struct {
	setup time.Duration
	phase time.Duration
	ops   int
}

// usPerOp is the round's CPU microseconds per operation.
func (c cpuCost) usPerOp() float64 { return ratio(us(c.phase), float64(c.ops)) }

// costMetrics fills the gated cost metrics with their medians across
// rounds.
func costMetrics(rep *report, costs []cpuCost) {
	var setup, perOp []float64
	for _, c := range costs {
		setup = append(setup, c.setup.Seconds())
		perOp = append(perOp, c.usPerOp())
	}
	rep.metrics["setup_s"] = median(setup)
	rep.metrics["cpu_us_per_op"] = median(perOp)
}

// overheadRatio is the traced rounds' median CPU per operation over the
// untraced first round's.
func overheadRatio(costs []cpuCost) float64 {
	var traced []float64
	for _, c := range costs[1:] {
		traced = append(traced, c.usPerOp())
	}
	return ratio(median(traced), costs[0].usPerOp())
}
