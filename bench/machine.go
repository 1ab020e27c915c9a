package main

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts by about ±10% over tens of seconds, which
// moves every time the benchmark measures by as much. The machine probe
// measures that drift while a run goes on: a fixed reference kernel, built
// from the standard library only so that no change to the program can move
// it, runs every probeEvery on a thread of its own and is timed in that
// thread's CPU time. Time-sharing with the workload does not stretch thread
// CPU time; a slower core does. End-to-end times are then reported at
// reference speed, as if the kernel had taken referenceKernel throughout.
const (
	probeEvery      = 100 * time.Millisecond
	referenceKernel = 330 * time.Microsecond // the kernel on an idle 2-core Xeon
)

type probeSample struct {
	at     time.Time
	kernel time.Duration
}

// machineProbe samples the reference kernel until stopped.
type machineProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []probeSample
}

func startMachineProbe() *machineProbe {
	p := &machineProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *machineProbe) loop() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(p.done)
	block := make([]byte, 16<<10)
	xs := make([]float64, 32<<10)
	for i := range xs {
		xs[i] = float64(i%97) / 2
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		start := threadCPU()
		var acc float64
		for r := 0; r < 8; r++ {
			sum := sha256.Sum256(block)
			block[r] = sum[0]
			for i := 1; i < len(xs); i++ {
				acc += xs[i] * xs[i-1]
			}
		}
		xs[0] = acc / float64(len(xs)) // keeps the loop from being optimized away
		s := probeSample{at: time.Now(), kernel: threadCPU() - start}
		p.mu.Lock()
		p.samples = append(p.samples, s)
		p.mu.Unlock()
	}
}

// end stops the probe and waits for its goroutine to exit.
func (p *machineProbe) end() {
	close(p.stop)
	<-p.done
}

// speed is how fast the machine ran between from and to, relative to the
// reference: the reference kernel time over the median kernel time seen in
// that interval, above 1 when the machine was faster. With no sample in the
// interval it uses the nearest one.
func (p *machineProbe) speed(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var in []float64
	nearest, best := 0, time.Duration(1<<62)
	for i, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, float64(s.kernel))
		}
		if d := absDuration(s.at.Sub(to)); d < best {
			nearest, best = i, d
		}
	}
	if len(in) == 0 {
		if len(p.samples) == 0 {
			return 1
		}
		in = []float64{float64(p.samples[nearest].kernel)}
	}
	return float64(referenceKernel) / median(in)
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
