package campaign

import (
	"fmt"
	"slices"

	"memcontention/internal/eval"
	"memcontention/internal/export"
	"memcontention/internal/stats"
	"memcontention/internal/sweep"
)

// replicationSeeds lists the seed ensemble of a campaign: the base seed
// first (replication 0), then base+1, base+2, ... Deriving consecutive
// seeds keeps the sweep reproducible and lets any single replication be
// re-run by hand with a plain -seed flag.
func replicationSeeds(cfg Config) []uint64 {
	n := cfg.Replications
	if n < 1 {
		n = 1
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)
	}
	return seeds
}

// MetricStat summarises one Table II error metric across a seed
// ensemble: the sample mean, the sample (n−1) standard deviation and the
// half-width of the two-sided 95% confidence interval of the mean
// (Student-t). Cornebize & Legrand's "Variability Matters" is the
// motivation — a single-run error figure carries no information about
// run-to-run noise, so the sweep reports the distribution instead.
type MetricStat struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	CI95   float64 `json:"ci95"`
}

// metricStat computes a MetricStat from the per-replication values.
func metricStat(xs []float64) MetricStat {
	mean, half := stats.MeanCI95(xs)
	return MetricStat{Mean: mean, StdDev: stats.SampleStdDev(xs), CI95: half}
}

// PlatformReplication is the replication summary of one platform: every
// Table II error column as a distribution over the seed ensemble.
type PlatformReplication struct {
	Platform       string     `json:"platform"`
	CommSamples    MetricStat `json:"comm_samples"`
	CommNonSamples MetricStat `json:"comm_non_samples"`
	CommAll        MetricStat `json:"comm_all"`
	CompSamples    MetricStat `json:"comp_samples"`
	CompNonSamples MetricStat `json:"comp_non_samples"`
	CompAll        MetricStat `json:"comp_all"`
	Average        MetricStat `json:"average"`
}

// ReplicationSummary is the Monte-Carlo replication sweep result: Table
// II error metrics as mean / stddev / CI95 over a seed ensemble, per
// platform and in input platform order. It is deterministic in
// (base seed, replication count, platform set).
type ReplicationSummary struct {
	Replications int                   `json:"replications"`
	Seeds        []uint64              `json:"seeds"`
	Platforms    []PlatformReplication `json:"platforms"`
}

// Replicate runs the Monte-Carlo replication sweep: every platform in
// names is evaluated once per seed in the ensemble (see
// replicationSeeds) and the Table II error metrics are pooled into
// per-platform distributions. base, when non-nil, supplies the base-seed
// evaluations (replication 0) so a campaign that already evaluated them
// never measures the same seed twice; its order must match names.
// Evaluations run on cfg.Workers workers like EvaluatePlatforms.
func Replicate(cfg Config, names []string, base []*eval.PlatformResult) (*ReplicationSummary, error) {
	cfg = cfg.withDefaults()
	if cfg.Replications < 1 {
		cfg.Replications = 1
	}
	seeds := replicationSeeds(cfg)
	if base != nil && len(base) != len(names) {
		return nil, fmt.Errorf("campaign: replicate: %d base results for %d platforms", len(base), len(names))
	}

	// One job per (seed, platform) pair that still needs measuring,
	// enumerated seed-major so the flat result index is deterministic.
	type job struct {
		name string
		seed uint64
	}
	var jobs []job
	for i, seed := range seeds {
		if i == 0 && base != nil {
			continue
		}
		for _, name := range names {
			jobs = append(jobs, job{name: name, seed: seed})
		}
	}
	measured, err := sweep.MapCtx(cfg.ctx(), jobs, cfg.Workers, func(jb job) (*eval.PlatformResult, error) {
		jcfg := cfg
		jcfg.Seed = jb.seed
		return evaluateOne(jcfg, jb.name)
	})
	if err != nil {
		return nil, err
	}
	return summarize(seeds, names, slices.Concat(base, measured)), nil
}

// summarize pools seed-major evaluations into the replication summary:
// results[r*len(names)+p] is platform names[p] evaluated at seeds[r].
func summarize(seeds []uint64, names []string, results []*eval.PlatformResult) *ReplicationSummary {
	summary := &ReplicationSummary{Replications: len(seeds), Seeds: seeds}
	for p, name := range names {
		cols := make(map[string][]float64, 7)
		for r := range seeds {
			e := results[r*len(names)+p].Errors
			cols["comm_s"] = append(cols["comm_s"], e.CommSamples)
			cols["comm_n"] = append(cols["comm_n"], e.CommNonSamples)
			cols["comm_a"] = append(cols["comm_a"], e.CommAll)
			cols["comp_s"] = append(cols["comp_s"], e.CompSamples)
			cols["comp_n"] = append(cols["comp_n"], e.CompNonSamples)
			cols["comp_a"] = append(cols["comp_a"], e.CompAll)
			cols["avg"] = append(cols["avg"], e.Average)
		}
		summary.Platforms = append(summary.Platforms, PlatformReplication{
			Platform:       name,
			CommSamples:    metricStat(cols["comm_s"]),
			CommNonSamples: metricStat(cols["comm_n"]),
			CommAll:        metricStat(cols["comm_a"]),
			CompSamples:    metricStat(cols["comp_s"]),
			CompNonSamples: metricStat(cols["comp_n"]),
			CompAll:        metricStat(cols["comp_a"]),
			Average:        metricStat(cols["avg"]),
		})
	}
	return summary
}

// pctCI renders "mean ± ci95 %" for a table cell.
func pctCI(s MetricStat) string {
	return fmt.Sprintf("%.2f ± %.2f %%", s.Mean, s.CI95)
}

// Table renders the replication sweep in Table II's column layout, each
// cell as mean ± 95% CI half-width.
func (r *ReplicationSummary) Table() *export.Table {
	t := export.NewTable(
		fmt.Sprintf("TABLE II REPLICATED — MODEL ERRORS, MEAN ± 95%% CI OVER %d SEEDS", r.Replications),
		"Platform",
		"Comm on Samples", "Comm on non-Samples", "Comm all",
		"Comp on Samples", "Comp on non-Samples", "Comp all",
		"Average",
	)
	t.Grow(len(r.Platforms))
	for _, p := range r.Platforms {
		t.AddRow(p.Platform,
			pctCI(p.CommSamples), pctCI(p.CommNonSamples), pctCI(p.CommAll),
			pctCI(p.CompSamples), pctCI(p.CompNonSamples), pctCI(p.CompAll),
			pctCI(p.Average),
		)
	}
	return t
}
