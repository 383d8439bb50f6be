package bench

import (
	"fmt"
	"sort"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/tableio"
	"github.com/blockreorg/blockreorg/sparse"
)

// Config tunes an experiment run.
type Config struct {
	// Scale divides every dataset's published dimensions (1 = full size).
	// The default 8 keeps the full grid tractable on a laptop-class host.
	Scale int
	// Device is the simulated GPU; defaults to the paper's TITAN Xp.
	Device gpusim.Config
	// Datasets optionally restricts dataset-grid experiments to the named
	// Table II entries.
	Datasets []string
	// CacheDir, when set, caches generated datasets on disk between runs.
	CacheDir string
	// Workers bounds the host-side executor the experiments run on:
	// 0 selects the process-wide default (GOMAXPROCS), 1 forces
	// sequential execution, anything else gets a dedicated executor.
	// Results are identical for every setting.
	Workers int
	// Accum selects the merge accumulator strategy for every run; the
	// zero value is per-row auto-selection. Results are bit-identical for
	// every setting.
	Accum sparse.AccumulatorKind

	ex   *parallel.Executor
	memo *memo
}

// Shared returns cfg with its defaults filled and one memo of simulated
// results attached: every experiment run with the returned Config reads
// and fills that memo, so a run several figures share is simulated once.
// A Config that has not been through Shared gets a fresh memo per Run.
func (c Config) Shared() Config { return c.normalize() }

// normalize fills defaults and binds the executor and the memo.
func (c Config) normalize() Config {
	if c.Scale == 0 {
		c.Scale = 8
	}
	if c.Device.NumSMs == 0 {
		c.Device = gpusim.TitanXp()
	}
	if c.ex == nil {
		if c.Workers == 0 {
			c.ex = parallel.Default()
		} else {
			c.ex = parallel.NewExecutor(c.Workers)
		}
	}
	if c.memo == nil {
		c.memo = &memo{results: make(map[runKey]result)}
	}
	return c
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	// ID is the artifact handle: "fig8", "tab2", "casestudy", ...
	ID string
	// Title cites the artifact.
	Title string
	// Expectation summarizes the shape the paper reports, for
	// paper-vs-measured comparison in EXPERIMENTS.md.
	Expectation string
	// Run executes the experiment.
	Run func(cfg Config) ([]*tableio.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		tab1(), tab2(), tab3(),
		fig3a(), fig3b(), fig3c(),
		fig8(), fig9(), fig10(),
		fig11(), fig12(), fig13(), fig14(),
		fig15(), fig16a(), fig16b(),
		caseStudy(),
		ablationAlpha(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, 20)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// selectedSpecs applies the config's dataset filter to the Table II
// catalog subset given.
func selectedSpecs(cfg Config, specs []datasets.Spec) ([]datasets.Spec, error) {
	if len(cfg.Datasets) == 0 {
		return specs, nil
	}
	byName := make(map[string]datasets.Spec, len(specs))
	for _, s := range specs {
		byName[s.Name] = s
	}
	var out []datasets.Spec
	for _, name := range cfg.Datasets {
		s, ok := byName[name]
		if !ok {
			// The name may simply fall outside this experiment's subset
			// (e.g. a Florida matrix for a Stanford-only figure, or a
			// Table III synthetic or C = AB pair in a Table II grid).
			if _, err := datasets.ByName(name); err != nil {
				if _, synErr := datasets.SyntheticByName(name); synErr != nil && !isABLabel(name) {
					return nil, err
				}
			}
			continue
		}
		out = append(out, s)
	}
	return out, nil
}

// generate materializes a Table II stand-in, through the disk cache when
// one is configured.
func (c Config) generate(spec datasets.Spec) (*sparse.CSR, error) {
	return spec.GenerateCached(c.Scale, c.CacheDir)
}

// forEachSpec runs fn once per spec on the config's executor (fn(i) handles
// specs[i]) and returns the first error in spec order. Table II's
// statistics sweep uses it to process specs concurrently while emitting
// rows in catalog order: fn writes its results into slot i of a
// caller-owned slice. Simulated runs go through grid instead, one dataset
// at a time.
func forEachSpec(cfg Config, n int, fn func(i int) error) error {
	errs := make([]error, n)
	cfg.ex.ForEachN(n, func(r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			errs[i] = fn(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// motivationSpecs returns the ten matrices of Figure 3 the config
// selects: five regular (Florida) and five skewed (Stanford), mirroring
// the paper's harbor/protein/QCD/filter3D/ship + youtube/loc-gowalla/
// as-caida/sx-mathoverflow/slashDot line-up.
func motivationSpecs(cfg Config) ([]datasets.Spec, error) {
	var specs []datasets.Spec
	for _, name := range []string{
		"harbor", "protein", "QCD", "filter3D", "ship",
		"youtube", "loc-gowalla", "as-caida", "sx-mathoverflow", "slashDot",
	} {
		if len(cfg.Datasets) > 0 && !contains(cfg.Datasets, name) {
			continue
		}
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
