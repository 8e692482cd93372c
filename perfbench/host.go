package main

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// hostEvery is the sampling period of the host sampler.
const hostEvery = 20 * time.Millisecond

// clockTicks is USER_HZ, the unit of /proc/stat times on Linux.
const clockTicks = 100

// hostPoint is one sample of the process's resident set size and of
// the vCPU time the hypervisor has taken from this machine so far.
type hostPoint struct {
	at     time.Time
	rssMB  float64
	stealS float64 // cumulative, summed over CPUs
}

// hostTrace is what a sampler saw, in time order.
type hostTrace []hostPoint

// hostSampler samples RSS and stolen time while a timed phase runs.
type hostSampler struct {
	stop  chan struct{}
	done  chan hostTrace
	once  sync.Once
	trace hostTrace
}

func startHost() *hostSampler {
	s := &hostSampler{stop: make(chan struct{}), done: make(chan hostTrace, 1)}
	go func() {
		var pts hostTrace
		tick := time.NewTicker(hostEvery)
		defer tick.Stop()
		for {
			p := hostPoint{at: time.Now()}
			rss, err1 := residentMB()
			steal, err2 := stolenSeconds()
			if err1 == nil && err2 == nil {
				p.rssMB, p.stealS = rss, steal
				pts = append(pts, p)
			}
			select {
			case <-s.stop:
				s.done <- pts
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its trace; later
// calls return the same trace.
func (s *hostSampler) finish() hostTrace {
	s.once.Do(func() {
		close(s.stop)
		s.trace = <-s.done
	})
	return s.trace
}

// stealAt interpolates the cumulative stolen time at t.
func (h hostTrace) stealAt(t time.Time) float64 {
	if len(h) == 0 {
		return 0
	}
	if !t.After(h[0].at) {
		return h[0].stealS
	}
	for i := 1; i < len(h); i++ {
		if !t.After(h[i].at) {
			a, b := h[i-1], h[i]
			frac := t.Sub(a.at).Seconds() / b.at.Sub(a.at).Seconds()
			return a.stealS + frac*(b.stealS-a.stealS)
		}
	}
	return h[len(h)-1].stealS
}

// maxSteal caps the stolen fraction a window is corrected for.
const maxSteal = 0.9

// stealFrac is the share of the machine's vCPU time the hypervisor
// took between a and b.
func (h hostTrace) stealFrac(a, b time.Time) float64 {
	d := b.Sub(a).Seconds()
	if d <= 0 {
		return 0
	}
	f := (h.stealAt(b) - h.stealAt(a)) / (d * float64(runtime.NumCPU()))
	return max(0, min(maxSteal, f))
}

// peakRSS is the largest sampled RSS between a and b (0 when no sample
// falls there).
func (h hostTrace) peakRSS(a, b time.Time) float64 {
	hi := 0.0
	for _, p := range h {
		if !p.at.Before(a) && !p.at.After(b) && p.rssMB > hi {
			hi = p.rssMB
		}
	}
	return hi
}

// residentMB reads the current resident set size in MiB from
// /proc/self/statm.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0, errors.New("short /proc/self/statm")
	}
	pages, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// stolenSeconds reads the machine's cumulative steal time (the eighth
// value of the aggregate cpu line of /proc/stat), in vCPU seconds.
func stolenSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, errors.New("unexpected /proc/stat")
	}
	ticks, err := strconv.ParseUint(string(fields[8]), 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicks, nil
}
