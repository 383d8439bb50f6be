package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/kernels"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/internal/trace"
)

// DatasetProfile is the phase-resolved host profile of one Table II dataset:
// a full Block Reorganizer multiplication (values included — the host
// numeric expansion is the point) traced end to end.
type DatasetProfile struct {
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows"`
	NNZ     int    `json:"nnz"`
	// Coverage is the instrumented share of the run's wall time: the sum of
	// every phase except "other", over the wall time. The acceptance gate is
	// ≥0.95 on the Table II grid.
	Coverage float64        `json:"coverage"`
	Profile  *trace.Profile `json:"profile"`
}

// ProfileReport is the machine-readable record cmd/blockreorg-bench -profile
// writes (PROFILE_host.json by default): one traced multiplication per
// selected Table II dataset, pinned to the recording host.
type ProfileReport struct {
	GoMaxProcs int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	GoVersion  string           `json:"go_version"`
	Scale      int              `json:"scale"`
	Datasets   []DatasetProfile `json:"datasets"`
}

// reducedGrid is the reduced Table II grid the profile and out-of-core
// runs default to — the same subset bench_test.go uses, covering both
// families.
func reducedGrid() []string {
	return []string{
		"harbor", "QCD", "mario002",
		"youtube", "as-caida", "slashDot",
	}
}

// RunProfile traces one Block Reorganizer multiplication (A², the paper's
// workload) per dataset in the config's selection — defaulting to the
// reduced Table II grid — and returns the
// phase-resolved report. Runs are sequential across datasets so one
// dataset's executor activity cannot bleed into another's profile.
func RunProfile(cfg Config) (*ProfileReport, error) {
	cfg = cfg.normalize()
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = reducedGrid()
	}
	rep := &ProfileReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Scale:      cfg.Scale,
	}
	for _, name := range cfg.Datasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := cfg.generate(spec)
		if err != nil {
			return nil, err
		}
		rec := trace.New()
		_, err = kernels.Reorganizer{}.Multiply(m, m, kernels.Options{
			Device: cfg.Device, Exec: cfg.ex, Trace: rec,
			Accumulator: cfg.Accum,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: profiling %s: %w", name, err)
		}
		p := rec.Profile()
		rep.Datasets = append(rep.Datasets, DatasetProfile{
			Dataset:  name,
			Rows:     m.Rows,
			NNZ:      m.NNZ(),
			Coverage: 1 - p.PhaseSeconds(trace.PhaseOther)/p.WallSeconds,
			Profile:  p,
		})
	}
	return rep, nil
}

// Table renders the report as one phase-share grid: datasets as rows, the
// phases that fired in at least one dataset as columns (share of wall
// time, in taxonomy order), plus wall time and coverage.
func (r *ProfileReport) Table() *tableio.Table {
	fired := make(map[string]bool)
	for _, d := range r.Datasets {
		for _, b := range d.Profile.Phases {
			fired[b.Phase] = true
		}
	}
	var phases []trace.Phase
	for _, ph := range trace.Phases() {
		if fired[string(ph)] {
			phases = append(phases, ph)
		}
	}
	cols := []string{"dataset", "wall_ms"}
	for _, ph := range phases {
		cols = append(cols, string(ph))
	}
	cols = append(cols, "coverage", "accum d/s")
	t := tableio.New("Host phase profile (share of wall time, Block Reorganizer)", cols...)
	for _, d := range r.Datasets {
		row := []string{d.Dataset, fmt.Sprintf("%.2f", d.Profile.WallSeconds*1e3)}
		for _, ph := range phases {
			row = append(row, fmt.Sprintf("%.3f", d.Profile.PhaseSeconds(ph)/d.Profile.WallSeconds))
		}
		row = append(row, fmt.Sprintf("%.3f", d.Coverage),
			fmt.Sprintf("%d/%d",
				d.Profile.Counters[trace.CounterAccumDenseRows],
				d.Profile.Counters[trace.CounterAccumSortRows]))
		t.AddRow(row...)
	}
	return t
}

// WriteFile stores the report as indented JSON.
func (r *ProfileReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
