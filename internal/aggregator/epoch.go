package aggregator

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"nextdvfs/internal/fleetd"
)

// Coordinator drives phased federation epochs over a set of edge
// aggregators and the root — the coordinator half of the
// coordinator/worker decomposition. One epoch runs three phases:
//
//	split:          each aggregator runs a local merge round per key,
//	                refreshing the regional policy it serves as the
//	                root-unreachable fallback (aggregators work in
//	                parallel; failures here are non-fatal).
//	local-merge →   each aggregator flushes its pending devices to
//	federated-join: the root — a delta of each device's changed states,
//	                or its full table — and the root applies them to
//	                its per-device rows; a late or unreachable
//	                aggregator is recorded in Late and the epoch
//	                continues without it — its queue keeps the changes
//	                and the next epoch catches up.
//	root join:      the root merges every key over all device tables
//	                it now holds, minting
//	                rollout artifacts when the lifecycle is enabled.
//
// The production deployment runs the same phases over the wire: POST
// /v1/merge and POST /v1/flush on each aggregator, then POST /v1/merge
// on the root (see docs/operations.md).
type Coordinator struct {
	Root  *fleetd.Client
	Aggs  []*Server
	epoch int64
}

// EpochReport summarizes one federation epoch.
type EpochReport struct {
	Epoch       int64
	LocalMerges int                // aggregator-local rounds that ran
	Flushed     int                // device tables the root accepted this epoch
	Late        []string           // aggregators that failed to flush (sorted)
	Merges      []fleetd.MergeInfo // root rounds, one per key
}

// RunEpoch runs one federation epoch over the given policy keys. The
// returned error is nil as long as the root completed its joins; late
// aggregators are reported, not fatal.
func (c *Coordinator) RunEpoch(keys []fleetd.Key) (EpochReport, error) {
	c.epoch++
	rep := EpochReport{Epoch: c.epoch}

	// Phase 1 — split: local merge rounds, in parallel across
	// aggregators. An aggregator with nothing to merge for a key (no
	// regional uploads) is normal, not an error.
	var wg sync.WaitGroup
	localMerges := make([]int, len(c.Aggs))
	for i, a := range c.Aggs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				if _, err := a.MergeLocal(k); err == nil {
					localMerges[i]++
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range localMerges {
		rep.LocalMerges += n
	}

	// Phase 2 — drain the workers upward. Late aggregators keep their
	// queues; the epoch completes without them.
	flushed := make([]int, len(c.Aggs))
	late := make([]bool, len(c.Aggs))
	for i, a := range c.Aggs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := a.Flush()
			flushed[i] = n
			late[i] = err != nil
		}()
	}
	wg.Wait()
	for i, a := range c.Aggs {
		rep.Flushed += flushed[i]
		if late[i] {
			rep.Late = append(rep.Late, a.ID())
		}
	}
	sort.Strings(rep.Late)

	// Phase 3 — federated join at the root, one round per key. A key
	// with no tables at the root yet (every regional device sits behind
	// a late aggregator) is skipped; any other failure is the epoch's.
	for _, k := range keys {
		info, err := c.Root.Merge(k.App, k.Platform)
		if err != nil {
			if errors.Is(err, fleetd.ErrNoTables) {
				continue
			}
			return rep, fmt.Errorf("aggregator: epoch %d: root join for %s: %w", c.epoch, k, err)
		}
		rep.Merges = append(rep.Merges, info)
	}
	return rep, nil
}
