package bench

import (
	"context"

	"mcd/internal/resultcache"
)

// Cell is the wire-free description of one grid cell the Exec hook
// receives: everything needed to re-execute the cell out of process,
// plus the content address the harness derived for it. It is wire-free
// by necessity — internal/wire imports this package, so the dispatch
// hook cannot speak wire types; the serving layer converts a Cell into
// its wire.RunRequest (wire.CellRequest) and the two address spaces
// provably coincide.
type Cell struct {
	Label      string             `json:"label"`
	Key        string             `json:"key"`
	Benchmark  string             `json:"benchmark"`
	Controller string             `json:"controller"`
	Params     map[string]float64 `json:"params,omitempty"`
	Window     uint64             `json:"window"`
	Warmup     uint64             `json:"warmup"`
	Interval   uint64             `json:"interval"`
	Slew       float64            `json:"slew"`
	// Fidelity and SampleEvery carry the cell's simulation tier (empty:
	// exact), so a sampled cell dispatched to a fabric worker re-executes
	// at the tier it was keyed under.
	Fidelity    string `json:"fidelity,omitempty"`
	SampleEvery int    `json:"sample_every,omitempty"`
	// Store is the grid row's shared store for the sub-runs of a
	// compound preparation (control.Run.Store), or nil. It is never
	// encoded: a cell executed in this process shares its search's
	// sub-runs with the rest of its row, one executed elsewhere does not,
	// and both give the same result.
	Store *resultcache.Cache `json:"-"`
}

// ExecFunc executes one grid cell out of process and returns its
// canonical result encoding. The harness decodes the bytes, so a
// dispatched cell is byte-identical to a locally computed one by the
// determinism contract; the hook owns cache probing and storing (the
// harness's own Cache is not consulted for dispatched cells).
type ExecFunc func(ctx context.Context, c Cell) ([]byte, error)

// cell assembles the Cell description of one registry-resolved grid
// cell from the harness scale and the cell's own identity. Params are
// copied: callers reuse their maps across cells.
func (o Options) cell(label, bench, ctrl, key string, p map[string]float64) Cell {
	var params map[string]float64
	if len(p) > 0 {
		params = make(map[string]float64, len(p))
		for k, v := range p {
			params[k] = v
		}
	}
	return Cell{
		Label:       label,
		Key:         key,
		Benchmark:   bench,
		Controller:  ctrl,
		Params:      params,
		Window:      o.Window,
		Warmup:      o.Warmup,
		Interval:    o.IntervalLength,
		Slew:        SlewNsPerMHz,
		Fidelity:    o.Fidelity,
		SampleEvery: o.SampleEvery,
	}
}
