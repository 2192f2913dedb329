package lease

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"memcontention/internal/obs"
)

// Info is one shard's lease as seen by a read-only observer: the shard,
// the liveness classification, the decoded lease (zero for
// StateCorrupt) and the heartbeat age at scan time.
type Info struct {
	Shard int
	State State
	Lease Lease
	// Age is scan-time minus the last heartbeat (0 for StateCorrupt —
	// an undecodable lease has no trustworthy heartbeat).
	Age time.Duration
}

// Scan inspects every lease file under dir without acquiring, creating
// or touching anything — the read-only counterpart to Manager for
// monitors like memtop, which must never perturb the fleet they
// observe. Staleness is judged exactly like Manager.Inspect: a
// heartbeat older than ttl+grace, or an owner process of this host that
// has exited, is stale. Zero ttl uses the default 15s; zero grace uses
// ttl/2 (negative: none); a nil clock uses obs.WallClock. A missing
// directory scans as empty — a campaign that has not started is not an
// error to look at.
func Scan(dir string, ttl, grace time.Duration, clock obs.Clock) ([]Info, error) {
	cfg := Config{Dir: dir, TTL: ttl, Grace: grace, Clock: clock}.withDefaults()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lease: scan %s: %w", dir, err)
	}
	now := cfg.Clock()
	var infos []Info
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".lease") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, "shard-"), ".lease")
		shard, aerr := strconv.Atoi(num)
		if aerr != nil || shard < 0 {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(rerr) {
			continue // released between ReadDir and ReadFile
		}
		if rerr != nil {
			return nil, fmt.Errorf("lease: scan %s: %w", name, rerr)
		}
		info := Info{Shard: shard}
		if l, derr := Decode(data); derr != nil {
			info.State = StateCorrupt
		} else {
			info.Lease = l
			info.Age = now.Sub(l.Heartbeat())
			if cfg.stale(l, now) {
				info.State = StateStale
			} else {
				info.State = StateLive
			}
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Shard < infos[j].Shard })
	return infos, nil
}
