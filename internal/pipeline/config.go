// Package pipeline implements the cycle-level out-of-order MCD core: a
// 4-wide front end (fetch, branch prediction, rename, dispatch) feeding
// per-domain issue queues, independently clocked integer, floating-point
// and load/store execution domains, and in-order retirement — with all
// inter-domain communication paying the synchronization-window penalty of
// the paper's clocking model.
package pipeline

import (
	"mcd/internal/clock"
	"mcd/internal/dvfs"
	"mcd/internal/stats"
)

// Config collects the architectural (Table 4) and MCD-specific (Table 1)
// parameters of the simulated processor.
type Config struct {
	// Widths.
	DecodeWidth int // instructions fetched/renamed/dispatched per FE cycle
	RetireWidth int
	IntALUs     int
	IntMuls     int
	FPALUs      int
	FPMuls      int
	MemPorts    int

	// Capacities.
	IntIQSize int
	FPIQSize  int
	LSQSize   int
	ROBSize   int
	// Rename registers available beyond the architectural state: the
	// number of in-flight producers each register file supports.
	IntRenameRegs int
	FPRenameRegs  int

	// Latencies, in cycles of the owning domain.
	IntALULat         int
	IntMulLat         int
	FPALULat          int
	FPMulLat          int
	FPDivLat          int
	L1Lat             int
	L2Lat             int
	MispredictPenalty int // front-end cycles
	// MemLatPS is the main-memory latency in picoseconds; main memory is
	// independently clocked at a fixed frequency the processor cannot
	// control, so its latency does not scale with any domain frequency.
	MemLatPS float64

	// Clocking (Table 1).
	MaxFreqMHz   float64
	JitterPS     float64 // per-cycle clock jitter sigma
	SyncWindowPS float64 // Sjogren–Myers synchronization window
	SlewNsPerMHz float64 // XScale frequency change rate
	// SingleClock models the conventional fully synchronous processor:
	// one shared clock, no synchronization penalties, no jitter between
	// domains, and no MCD clock-energy overhead.
	SingleClock bool

	// CacheBlockBytes is the coherence/disambiguation granularity.
	CacheBlockBytes int

	Seed int64
}

// DefaultConfig returns the paper's configuration (Tables 1 and 4).
func DefaultConfig() Config {
	return Config{
		DecodeWidth: 4,
		RetireWidth: 11,
		IntALUs:     4,
		IntMuls:     1,
		FPALUs:      2,
		FPMuls:      1,
		MemPorts:    2,

		IntIQSize:     20,
		FPIQSize:      15,
		LSQSize:       64,
		ROBSize:       80,
		IntRenameRegs: 40, // 72 physical − 32 architectural
		FPRenameRegs:  40,

		IntALULat:         1,
		IntMulLat:         7,
		FPALULat:          4,
		FPMulLat:          4,
		FPDivLat:          12,
		L1Lat:             2,
		L2Lat:             12,
		MispredictPenalty: 7,
		MemLatPS:          80_000, // 80 ns

		MaxFreqMHz:   1000,
		JitterPS:     110,
		SyncWindowPS: 300,
		SlewNsPerMHz: dvfs.DefaultSlewNsPerMHz,

		CacheBlockBytes: 64,
		Seed:            1,
	}
}

// Controller observes one interval record and may retarget the domain
// frequencies. A zero target leaves that domain's frequency unchanged.
// The interval record carries exactly what the paper's hardware provides:
// per-domain queue-utilization accumulators and the global IPC counter.
type Controller interface {
	Name() string
	Observe(iv IntervalView) (targets [clock.NumControllable]float64)
}

// DecisionNoter is an optional Controller extension consulted by the
// serving layer's decision-audit trail: a one-line, human-readable
// summary of the controller's internal state after its latest Observe
// (coord reports its slack budget and IPC guard, pi its integral
// accumulators). It is called only when tracing is enabled, at measured
// interval boundaries — never inside the cycle loop — so implementations
// may format freely; controllers that carry no hidden state simply
// don't implement it.
type DecisionNoter interface {
	DecisionNote() string
}

// IntervalView is the per-interval information visible to a controller.
type IntervalView struct {
	Index        int
	Instructions uint64
	EndPS        float64
	// Warmup marks intervals that fall inside the warmup region. On-line
	// controllers adapt through them (so the measured window reflects
	// steady-state control, as in the paper's long windows); schedule
	// replay controllers ignore them to stay aligned with the measured
	// intervals they were built against.
	Warmup bool
	// QueueUtil is occupancy accumulated every domain cycle divided by
	// the interval's instruction count (the paper's normalization, which
	// can exceed the queue capacity when CPI > 1).
	QueueUtil [clock.NumControllable]float64
	// QueueAvg is mean occupancy per domain cycle — a frequency-invariant
	// view of the same accumulator, kept for traces and diagnostics.
	QueueAvg [clock.NumControllable]float64
	// FreqMHz is each domain's regulator target at the interval boundary.
	FreqMHz [clock.NumControllable]float64
	// IPC is instructions per 1 GHz reference cycle — the single global
	// performance counter the paper shares with every domain.
	IPC float64
	// Estimated marks a fast-forwarded interval under sampled fidelity:
	// the queue and IPC fields are extrapolations of the last detailed
	// interval, not measurements. Reactive controllers should hold (return
	// zero targets, update no state) rather than steer on replayed data —
	// the utilization deltas they react to are frozen across a skip, which
	// reads as an endless quiet phase and drives decay-style feedback off
	// its exact-tier trajectory. Schedule-replay controllers advance
	// normally so their interval indices stay aligned.
	Estimated bool
}

// DefaultIntervalLength is the control interval, in instructions, a run
// uses when RunOptions.IntervalLength is zero (the paper's 10,000).
const DefaultIntervalLength = 10_000

// RunOptions controls one simulation.
type RunOptions struct {
	// Window is the number of instructions to retire and measure.
	Window uint64
	// Warmup is the number of additional instructions executed before
	// the measured window to warm caches and predictors, mirroring the
	// paper's practice of skipping each benchmark's initialization
	// phase. Energy, time, intervals and controller observations all
	// start after warmup.
	Warmup uint64
	// IntervalLength is the controller sampling period in instructions
	// (paper: 10,000). Zero uses DefaultIntervalLength.
	IntervalLength uint64
	// Controller may be nil for fixed-frequency runs.
	Controller Controller
	// InitialFreqMHz pins each domain's starting frequency; zero entries
	// start at MaxFreqMHz. The regulator starts settled (no slew) at
	// this frequency, modeling a configuration chosen before the run.
	InitialFreqMHz [clock.NumControllable]float64
	// RecordIntervals retains per-interval records in the Result for
	// the Figure 2/3 traces.
	RecordIntervals bool
	// SampleEvery enables the sampled fidelity tier: every SampleEvery-th
	// control interval is simulated in detail and the rest are
	// fast-forwarded with an analytical model seeded by the most recent
	// detailed interval (functional warming keeps caches and predictors
	// trained through the skips). 0 (and 1) simulate every interval in
	// detail; 0 additionally keeps the exact tier's semantics of letting
	// on-line controllers observe warmup intervals, whereas any non-zero
	// value leaves warmup uncontrolled so warmed state is
	// controller-independent and checkpointed warmup reuse stays sound.
	SampleEvery int
	// OnInterval, if non-nil, is called with each measured control
	// interval's record as it is produced (after the controller has
	// observed the interval) — the streaming hook the session API and
	// the live CLI/service modes ride on. It sees exactly the records
	// RecordIntervals would retain and must not mutate simulation state;
	// the record is a copy, safe to retain.
	OnInterval func(iv stats.Interval)
	// ConfigName labels the Result.
	ConfigName string
}
