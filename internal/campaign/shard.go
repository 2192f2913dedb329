package campaign

import (
	"hash/fnv"

	"memcontention/internal/bench"
	"memcontention/internal/topology"
)

// unit is one schedulable experiment unit of a sharded campaign. Units
// are config-keyed: Key condenses everything that determines the unit's
// result, it doubles as the journal key the unit's result is recorded
// under, and it hashes to the unit's deterministic home shard. run
// executes the unit against the worker's Config and returns its result;
// the worker records it (runRemoteUnit), and only RemoteMerge decodes it.
type unit struct {
	Key string
	run func(cfg Config) (any, error)
}

// homeShard assigns a unit to its deterministic home shard: an FNV-64a
// hash of the key modulo the shard count. The assignment depends only on
// (key, shards), and the manifest pins the shard count, so a resumed
// campaign looks for every unit on the shard that journaled it.
func homeShard(key string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// evalUnit builds the platform-evaluation unit for one (platform, seed):
// the full §IV evaluation, recorded whole.
func evalUnit(cfg Config, name string, seed uint64) (unit, error) {
	plat, err := topology.ByName(name)
	if err != nil {
		return unit{}, err
	}
	runner, err := bench.NewRunner(bench.Config{Platform: plat, Seed: seed})
	if err != nil {
		return unit{}, err
	}
	return unit{
		Key: "eval|" + runner.Scope(),
		run: func(wcfg Config) (any, error) {
			wcfg.Seed = seed
			return evaluateOne(wcfg, name)
		},
	}, nil
}

// netbenchUnit builds the ping-pong sweep unit of the first platform.
func netbenchUnit(names []string) unit {
	return unit{
		Key: "unit|netbench|" + names[0],
		run: func(wcfg Config) (any, error) { return Netbench(wcfg, names[0]) },
	}
}

// crossCheckUnit builds the DES overlap cross-check unit.
func crossCheckUnit(cfg Config, names []string) unit {
	return unit{
		Key: crossCheckKey(cfg, names[0]),
		run: func(wcfg Config) (any, error) { return CrossCheck(wcfg, names[0]) },
	}
}

// pipelineUnits enumerates the full Table II pipeline as units, in
// deterministic order: every platform at the base seed, then — when
// cfg.Replications > 1 — every platform again at each replication seed
// (base+1, base+2, ...), then the network sweep and the DES cross-check.
// The base-seed evaluations double as replication 0, so a replicated
// campaign never measures the base seed twice. assemble relies on this
// order.
func pipelineUnits(cfg Config, names []string) ([]unit, error) {
	var units []unit
	for _, seed := range replicationSeeds(cfg) {
		for _, name := range names {
			u, err := evalUnit(cfg, name, seed)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	units = append(units, netbenchUnit(names), crossCheckUnit(cfg, names))
	return units, nil
}
