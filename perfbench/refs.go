package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mcd/internal/runner"
	"mcd/internal/sim"
)

// The reference files are kept with the benchmark and compiled in:
// refs/digests.json maps every pool cell's id to the SHA-256 of its
// canonical exact result body, and refs/fidelity.json holds the
// exact-tier CPI and EPI of the sampled grid's directly simulated cells.
// Both come from --regen.
//
//go:embed refs/digests.json refs/fidelity.json
var refFiles embed.FS

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var refDigests = sync.OnceValues(func() (map[string]string, error) {
	var m map[string]string
	err := readRef("refs/digests.json", &m)
	return m, err
})

// point is one exact-tier reference cell.
type point struct {
	CPI float64 `json:"cpi"`
	EPI float64 `json:"epi"`
}

var refFidelity = sync.OnceValues(func() (map[string]point, error) {
	var m map[string]point
	err := readRef("refs/fidelity.json", &m)
	return m, err
})

func readRef(name string, v any) error {
	b, err := refFiles.ReadFile(name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// wantDigests returns the reference digest of every cell.
func wantDigests(cells []cell) ([]string, error) {
	refs, err := refDigests()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cells))
	for i, c := range cells {
		d, ok := refs[c.id()]
		if !ok {
			return nil, fmt.Errorf("no reference digest for cell %s (regenerate with --regen)", c.id())
		}
		out[i] = d
	}
	return out, nil
}

// regenerate recomputes both reference files into dir: every pool
// cell's exact result digest, computed directly with no store and no
// service, and the exact-fidelity QuickOptions grid's direct cells.
func regenerate(dir string) error {
	var cells []cell
	for _, p := range []pool{missPool, hitPool, fabricPool} {
		cells = append(cells, p.all()...)
	}
	tasks := make([]runner.Task[[]byte], len(cells))
	for i, c := range cells {
		req := c.request()
		tasks[i] = runner.Task[[]byte]{Name: c.id(), Run: func(context.Context) ([]byte, error) {
			b, _, err := req.RunCachedBytes(nil)
			return b, err
		}}
	}
	outs, err := runner.Map(context.Background(), tasks, runner.Options{Workers: maxClients()})
	if err != nil {
		return err
	}
	digests := make(map[string]string, len(cells))
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		digests[o.Name] = digest(o.Value)
	}
	o := gridOptions()
	o.Fidelity = sim.FidelityExact
	cs, err := runGrid(o)
	if err != nil {
		return err
	}
	fidelity := map[string]point{}
	for _, c := range cs {
		for _, d := range directCells(c) {
			fidelity[c.Bench.Name+"/"+d.name] = point{d.r.CPI(), d.r.EPI()}
		}
	}
	if err := writeRef(filepath.Join(dir, "digests.json"), digests); err != nil {
		return err
	}
	return writeRef(filepath.Join(dir, "fidelity.json"), fidelity)
}

func writeRef(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
