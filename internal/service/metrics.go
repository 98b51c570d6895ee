package service

import (
	"sync"
	"time"

	"mcd/internal/metrics"
	"mcd/internal/sim"
)

// managerMetrics bundles the manager's instruments. Counters the hot
// paths bump directly live here as fields; everything whose truth
// already lives in a manager table (queue depth, jobs by state, cache
// counters) is a callback family sampled at scrape time, so the metrics
// layer never keeps a second copy of serving state.
type managerMetrics struct {
	reg *metrics.Registry

	submitted     *metrics.CounterVec // accepted submissions, by kind
	rejected      *metrics.CounterVec // 429s, by reason: queue | quota | fleet
	cancelled     *metrics.Counter
	completed     *metrics.CounterVec // terminal jobs, by state: done | failed
	gapFrames     *metrics.Counter    // interval records dropped past the log bound
	journalErrors *metrics.Counter
	replayed      *metrics.Gauge
	runnerBusy    *metrics.GaugeVec
	runnerMIPS    *metrics.GaugeVec
	jobDuration   *metrics.HistogramVec // seconds, by phase: queue | run
}

// jobDurationBuckets are the fixed upper bounds of the job-duration
// histogram: sub-10 ms cache hits through multi-minute experiments.
// Fixed — never derived from traffic — so histograms aggregate across
// servers and a scrape's shape never changes.
var jobDurationBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// newManagerMetrics registers the manager's instruments on reg (a
// private registry when reg is nil, so Manager.Metrics always serves
// something).
func newManagerMetrics(m *Manager, reg *metrics.Registry) *managerMetrics {
	if reg == nil {
		reg = metrics.New()
	}
	mm := &managerMetrics{
		reg:           reg,
		submitted:     reg.CounterVec("mcd_jobs_submitted_total", "Jobs accepted into the queue, by kind.", "kind"),
		rejected:      reg.CounterVec("mcd_jobs_rejected_total", "Submissions rejected with 429, by reason: queue (depth exhausted), quota (per-client bound) or fleet (worker fleet saturated).", "reason"),
		cancelled:     reg.Counter("mcd_jobs_cancelled_total", "Cancel requests accepted for known jobs."),
		completed:     reg.CounterVec("mcd_jobs_completed_total", "Jobs that reached a terminal state, by state.", "state"),
		gapFrames:     reg.Counter("mcd_stream_gap_frames_total", "Interval records dropped past the bounded per-job log and reported to lagging stream consumers as explicit gap frames."),
		journalErrors: reg.Counter("mcd_journal_errors_total", "Journal appends or compactions that failed; persistence degraded but the jobs still ran."),
		replayed:      reg.Gauge("mcd_journal_replayed_jobs", "Jobs re-queued from the journal at the last startup."),
		runnerBusy:    reg.GaugeVec("mcd_runner_busy", "Whether the runner is executing a job (1) or idle (0).", "runner"),
		runnerMIPS:    reg.GaugeVec("mcd_runner_sim_mips", "Simulated MIPS of the runner's most recent job; approximate when runners overlap (the instruction counter is process-wide).", "runner"),
		jobDuration:   reg.HistogramVec("mcd_job_duration_seconds", "Job phase durations: queue (submission to start) and run (start to terminal).", "phase", jobDurationBuckets),
	}
	// Pre-touch the closed label sets so every scrape carries the full
	// family shape from the first request on — a counter that has never
	// fired reads 0 instead of being absent.
	for _, kind := range []string{"run", "stream", "batch", "experiment"} {
		mm.submitted.With(kind)
	}
	for _, reason := range []string{"queue", "quota", "fleet"} {
		mm.rejected.With(reason)
	}
	for _, state := range []string{string(Done), string(Failed)} {
		mm.completed.With(state)
	}
	for _, phase := range []string{"queue", "run"} {
		mm.jobDuration.With(phase)
	}
	reg.GaugeFunc("mcd_queue_depth", "Jobs waiting for a runner.", m.queueDepth)
	reg.GaugeVecFunc("mcd_jobs", "Jobs in the table, by state.", "state", m.stateCounts)
	reg.GaugeFunc("mcd_job_latency_seconds", "Exponentially weighted recent job latency.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.latEWMA
	})

	// Cache families sample the result store's own counters; with no
	// store configured every sample is zero, which keeps dashboards
	// uniform across deployments.
	reg.CounterVecFunc("mcd_cache_hits_total", "Requests served without simulating locally, by tier: mem, disk, dedup (joined an in-flight computation), or remote (bytes computed by a fabric worker).", "tier",
		func() map[string]float64 {
			s := m.opts.Cache.Stats()
			return map[string]float64{"mem": float64(s.MemHits), "disk": float64(s.DiskHits), "dedup": float64(s.Dedups), "remote": float64(s.RemoteLoads)}
		})
	reg.CounterFunc("mcd_cache_misses_total", "Requests that had to simulate.", func() float64 {
		return float64(m.opts.Cache.Stats().Misses)
	})
	reg.CounterFunc("mcd_cache_evictions_total", "Memory-tier evictions.", func() float64 {
		return float64(m.opts.Cache.Stats().Evictions)
	})
	reg.CounterFunc("mcd_cache_write_errors_total", "Failed disk-tier persists (the result was still served).", func() float64 {
		return float64(m.opts.Cache.Stats().WriteErrors)
	})
	reg.GaugeFunc("mcd_cache_entries", "Memory-tier entries resident.", func() float64 {
		return float64(m.opts.Cache.Stats().Entries)
	})
	reg.GaugeFunc("mcd_cache_mem_bytes", "Memory-tier bytes resident.", func() float64 {
		return float64(m.opts.Cache.Stats().MemBytes)
	})

	reg.CounterFunc("mcd_sim_instructions_total", "Simulated instructions executed process-wide.", func() float64 {
		return float64(sim.SimulatedInstructions())
	})
	// Scrape-to-scrape simulation throughput: exact (unlike the
	// per-runner gauges) because the process-wide counter delta over the
	// wall-clock delta needs no attribution.
	var (
		scrapeMu  sync.Mutex
		lastInstr uint64
		lastAt    time.Time
	)
	reg.GaugeFunc("mcd_sim_mips", "Process-wide simulated MIPS between the last two scrapes.", func() float64 {
		scrapeMu.Lock()
		defer scrapeMu.Unlock()
		now := time.Now()
		instr := sim.SimulatedInstructions()
		var mips float64
		if !lastAt.IsZero() {
			if secs := now.Sub(lastAt).Seconds(); secs > 0 {
				mips = float64(instr-lastInstr) / secs / 1e6
			}
		}
		lastInstr, lastAt = instr, now
		return mips
	})
	return mm
}

// queueDepth backs the mcd_queue_depth gauge.
func (m *Manager) queueDepth() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(len(m.pending))
}

// stateCounts backs the mcd_jobs gauge vector: how many jobs in the
// table sit in each state. All four states are always present, so a
// scrape after startup already shows the full shape.
func (m *Manager) stateCounts() map[string]float64 {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	counts := map[string]float64{
		string(Queued): 0, string(Running): 0, string(Done): 0, string(Failed): 0,
	}
	for _, j := range js {
		counts[string(j.Snapshot().State)]++
	}
	return counts
}
