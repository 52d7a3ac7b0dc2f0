package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// procMB reads one memory field of /proc/<pid>/status, such as VmHWM
// (peak resident set) or VmRSS (resident set now), in MB.
func procMB(pid int, field string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// rssEvery is how often rssSampler reads the resident set size.
const rssEvery = 50 * time.Millisecond

// rssSampler records a process's resident set size while a workload
// runs. Its median is steadier than the peak, which depends on where the
// garbage collector happened to run relative to the largest allocations.
type rssSampler struct {
	stop, done chan struct{}
	once       sync.Once
	mb         []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if mb := procMB(pid, "VmRSS"); mb > 0 {
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it; it may be called again.
func (s *rssSampler) halt() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// median stops the sampler and returns the median of its samples.
func (s *rssSampler) median() float64 {
	s.halt()
	return median(s.mb)
}
