package service

import (
	"time"

	"mcd/internal/clock"
	"mcd/internal/resultcache"
	"mcd/internal/stats"
	"mcd/internal/trace"
	"mcd/internal/wire"
)

// maxJobTraceRecords bounds one job's retained trace. A quick run's
// full lifecycle plus per-interval decisions fits comfortably; a
// paper-scale run keeps its newest records and the export reports the
// overwritten remainder explicitly (trace.WriteChrome's truncation
// instant), so a long run can never grow server memory without bound.
const maxJobTraceRecords = 4096

// tracing reports whether the flight recorder is configured; every
// trace-producing call site is behind it, so a server without -trace
// takes no timestamps and allocates no records.
func (m *Manager) tracing() bool { return m.opts.Trace != nil }

// addTrace stamps the job identity onto one record and lands it in both
// sinks: the job's own bounded trace (GET /v1/jobs/{id}/trace) and the
// process-wide ring (GET /debug/trace).
func (m *Manager) addTrace(j *job, rec trace.Record) {
	rec.Job = j.id
	rec.Client = j.client
	j.traceRing().Add(rec)
	m.opts.Trace.Add(rec)
}

// spanRec builds a lifecycle span record.
func spanRec(name, key, tier string, start, end time.Time) trace.Record {
	return trace.Record{
		Kind: trace.KindSpan, Name: name, Key: key, Tier: tier,
		StartUS: start.UnixMicro(), DurUS: end.Sub(start).Microseconds(),
	}
}

// instantRec builds a point-event record.
func instantRec(name string, at time.Time) trace.Record {
	return trace.Record{Kind: trace.KindInstant, Name: name, StartUS: at.UnixMicro()}
}

// runHooks builds the observation surface of one run of job j: the
// interval emitter always, plus — when tracing — cache probe/run/store
// spans and the per-interval controller decision audit, all under the
// run's spec key ("" for opaque controllers, which still trace).
func (m *Manager) runHooks(j *job, r wire.Resolved, emit func(stats.Interval)) wire.RunHooks {
	h := wire.RunHooks{Emit: emit}
	if !m.tracing() {
		return h
	}
	key := r.Key
	h.Cache = &resultcache.Obs{
		Probe: func(tier string, start, end time.Time) {
			m.addTrace(j, spanRec("probe", key, tier, start, end))
		},
		Compute: func(start, end time.Time) {
			m.addTrace(j, spanRec("run", key, "", start, end))
		},
		Store: func(start, end time.Time, err error) {
			rec := spanRec("store", key, "", start, end)
			if err != nil {
				rec.Note = err.Error()
			}
			m.addTrace(j, rec)
		},
	}
	h.Decide = func(iv stats.Interval, chosen [clock.NumControllable]float64, note string) {
		m.addTrace(j, trace.Record{
			Kind: trace.KindDecision, Name: "decision", Key: key,
			Interval: iv.Index, SimPS: iv.EndPS, IPC: iv.IPC,
			QueueAvg: iv.QueueAvg, FreqMHz: chosen, Note: note,
		})
	}
	return h
}

// traceRing returns the job's bounded trace buffer (nil when tracing is
// disabled or the buffer has been released; a nil Ring is inert).
func (j *job) traceRing() *trace.Ring {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trc
}

// dropTrace releases the job's trace buffer; like dropIntervals it runs
// when a terminal job ages past the retained observability window.
func (j *job) dropTrace() {
	j.mu.Lock()
	j.trc = nil
	j.mu.Unlock()
}
