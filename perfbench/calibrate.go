package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed calibration. The machines this benchmark runs on share
// their cores with other tenants, and the simulator's speed swings by up
// to a half with their load: the same request list took 41 ms and 63 ms
// median per op in two runs a minute apart. A fixed
// calibration loop — a toy cache and branch predictor, written here and
// never changed, so no change to the program can move it — is timed
// between ops (or beside an op that has no gaps); its median time over a
// pass, against calRefNs, is the pass's machine-speed factor, and the
// times the benchmark reports are scaled by it to the reference speed.
// Time the hypervisor stole from the machine is taken out of wall times
// separately (stealShare).

const (
	calIters = 30_000 // one calibration slice: about a millisecond and a half
	// calRefNs is one slice's time at the reference speed the time
	// metrics are scaled to.
	calRefNs = 1_500_000
	// calSensitivity is how far the program's speed moves for a move of
	// the loop's, as an exponent: the loop is all core-bound work, the
	// simulator and the service less so. Fitted over eighty runs (twenty
	// seeds of each workload, timed with one slice per gap): the scaled
	// times spread least at 0.75 on every workload — 4–7%, against 6–11%
	// at 1 and 14–28% unscaled.
	calSensitivity = 0.75
)

// calState is the calibration loop's toy machine, one per concurrent
// slice. No two passes, and so no two speedometers, ever overlap.
type calState struct {
	tags [1024][4]uint64
	age  [1024][4]uint8
	bp   [1 << 14]uint8
	x    uint64
}

var calStates [2]calState

// calSlice runs one calibration slice on s.
func calSlice(s *calState) {
	if s.x == 0 {
		s.x = 88172645463325252
	}
	x, pc := s.x, uint64(0x400000)
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x & 0xfffff) &^ 63
		if x&7 < 5 {
			addr = (pc*8 + uint64(i&255)*64) & 0x3ffff
		}
		set, tag := (addr>>6)&1023, addr>>16
		way := -1
		for w := 0; w < 4; w++ {
			if s.tags[set][w] == tag {
				way = w
				break
			}
		}
		if way < 0 {
			way = 0
			for w := 1; w < 4; w++ {
				if s.age[set][w] > s.age[set][way] {
					way = w
				}
			}
			s.tags[set][way] = tag
		}
		for w := 0; w < 4; w++ {
			if s.age[set][w] < 255 {
				s.age[set][w]++
			}
		}
		s.age[set][way] = 0
		bi := (pc ^ (x >> 20)) & (1<<14 - 1)
		taken := (x>>33)&3 != 0
		c := s.bp[bi]
		switch {
		case taken && c < 3:
			s.bp[bi] = c + 1
		case !taken && c > 0:
			s.bp[bi] = c - 1
		}
		pc += 4
		if taken {
			pc += (x >> 40) & 0xff * 4
		}
	}
	s.x = x
}

// threadCPU is the calling OS thread's CPU time: unlike wall time, it
// does not grow while the thread waits for a CPU, only while it runs —
// and it runs slower when another tenant loads the core.
func threadCPU() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano())
}

// speedometer collects calibration slice times and turns them into a
// machine-speed factor: the reference slice time over their median, to
// the power calSensitivity.
// Multiply a time measured alongside by the factor to scale it to the
// reference speed; divide a rate by it.
type speedometer struct {
	mu sync.Mutex
	ns []float64
}

// sample times one slice on each of up to maxClients threads at once, so
// that every CPU the workload runs on is measured, each by the CPU time
// of its thread: neither waiting for a CPU nor the clock's resolution
// counts.
func (m *speedometer) sample() {
	var wg sync.WaitGroup
	for c := 0; c < maxClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			calSlice(&calStates[c])
			d := threadCPU() - t0
			m.mu.Lock()
			m.ns = append(m.ns, d)
			m.mu.Unlock()
		}()
	}
	wg.Wait()
}

func (m *speedometer) factor() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if med := median(m.ns); med > 0 {
		return math.Pow(calRefNs/med, calSensitivity)
	}
	return 1 // no slice timed, or no thread clock to time one by
}

// stolenSeconds reads the machine's steal time: how long its CPUs were
// ready to run but the hypervisor ran another tenant. Thread CPU time
// leaves it out, so calibration cannot see it; wall time holds it all.
// It reads 0 where /proc/stat is missing.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / userHz
}

// userHz is the unit of /proc/stat's times: USER_HZ, 100 on Linux.
const userHz = 100

// stealShare is the share of a span's wall time the hypervisor stole
// from the process: stolen CPU time over the CPU time the process got,
// since a process keeping n CPUs busy loses one n-th of a CPU's stolen
// time from its wall clock. The share is capped at a half.
func stealShare(stolen float64, cpu time.Duration) float64 {
	if cpu <= 0 {
		return 0
	}
	return min(0.5, stolen/cpu.Seconds())
}

// calEvery is the background calibrator's period.
const calEvery = 25 * time.Millisecond

// background samples m every calEvery until the returned stop is called,
// for an op that runs its own workers and leaves no gap to calibrate in.
// stop waits for the sampler to end.
func (m *speedometer) background() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}
