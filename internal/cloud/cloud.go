// Package cloud models Section IV-C of the paper: offloading agent
// training to a cloud server and sharing learned Q-tables across a
// fleet of devices with federated averaging.
//
// The paper measured training on an Intel Xeon E7-8860V3 server to be
// roughly an order of magnitude faster than on-device (Fig. 6: 67→7 s,
// 312→73 s across quantization levels) with at most 4 s of round-trip
// communication overhead. This package reproduces that cost model and
// implements the visit-weighted Q-table merge a federated deployment
// would run.
package cloud

import (
	"fmt"
	"strconv"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// TrainerConfig is the cloud cost model.
type TrainerConfig struct {
	// Speedup is how much faster the cloud trains than the device
	// (cloud wall time = device time / Speedup).
	Speedup float64
	// CommOverheadUS is the to-and-fro transfer overhead per training
	// round (the paper observed a 4 s maximum).
	CommOverheadUS int64
}

// DefaultTrainerConfig matches the paper's observations.
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{Speedup: 9.5, CommOverheadUS: 4_000_000}
}

// WallTimeUS converts an on-device training duration into the cloud
// wall time the user experiences (compute at cloud speed plus the
// communication overhead).
func (c TrainerConfig) WallTimeUS(onDeviceUS int64) int64 {
	if c.Speedup <= 0 {
		return onDeviceUS + c.CommOverheadUS
	}
	return int64(float64(onDeviceUS)/c.Speedup) + c.CommOverheadUS
}

// MergeTables federated-averages Q-tables trained on different devices:
// every state's action values are combined weighted by per-device visit
// counts, so a device that explored a state thoroughly dominates
// devices that barely saw it. Each merged value is the correctly
// rounded Σw·q / Σw, independent of the order of tables. Tables must
// share the action-space size and hold Q-values below MaxAbsQ in
// magnitude.
func MergeTables(tables []*core.QTable) (*core.QTable, error) {
	sets := make([]*learner.TableSet, len(tables))
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("cloud: table %d is nil", i)
		}
		sets[i] = learner.SingleTableSet(t)
	}
	merged, err := MergeTableSets(sets)
	if err != nil {
		return nil, err
	}
	return merged.Primary(), nil
}

// MergeTableSets federated-averages complete learner table states
// role-by-role: every set must come from the same learner (same
// registry name and role layout), and each role merges independently
// across devices — so a two-estimator Double-Q policy keeps two
// distinct estimators through a fleet merge instead of collapsing into
// one. It adds every set to one Merger and rounds once: the same path
// fleetd's incremental rounds take.
func MergeTableSets(sets []*learner.TableSet) (*learner.TableSet, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("cloud: nothing to merge")
	}
	m := NewMerger()
	for i, s := range sets {
		if err := m.Upload(strconv.Itoa(i), s); err != nil {
			return nil, fmt.Errorf("cloud: set %d: %w", i, err)
		}
	}
	return m.Merge(), nil
}

// NewArtifact wraps a merge round's output as an unversioned policy
// artifact: the canonical content hash, the learner identity, and the
// merge provenance (round, contributing devices, state count). The
// rollout manager assigns Version, Parent and CreatedUS on Submit —
// versions are a per-key lifecycle property, not a merge property.
func NewArtifact(set *learner.TableSet, round int64, devices int) (rollout.Artifact, error) {
	if set == nil || set.Primary() == nil {
		return rollout.Artifact{}, fmt.Errorf("cloud: empty merge output")
	}
	hash, err := core.HashTableSet(set)
	if err != nil {
		return rollout.Artifact{}, fmt.Errorf("cloud: hashing merge output: %w", err)
	}
	return rollout.Artifact{
		ArtifactMeta: core.ArtifactMeta{
			Hash:    hash,
			Learner: learner.Normalize(set.Learner),
			Round:   round,
			Devices: devices,
			States:  set.Primary().States(),
		},
		Set: set,
	}, nil
}

// Fleet is a set of devices (agents) participating in federated
// training of the same applications.
type Fleet struct {
	Devices []*core.Agent
	Trainer TrainerConfig
}

// MergeApp merges the named app's learner table sets across the fleet
// role-by-role and installs the merged, trained set on every device.
// It returns the merged primary table and the user-visible wall time of
// the round (slowest device's training time through the cloud cost
// model). Devices that never saw the app are skipped as sources but
// still receive the merged set.
func (f *Fleet) MergeApp(app string) (*core.QTable, int64, error) {
	var sets []*learner.TableSet
	var slowest int64
	for _, d := range f.Devices {
		set := d.SnapshotFor(app)
		if set == nil || set.Primary() == nil {
			continue
		}
		sets = append(sets, set)
		if set.Primary().TrainedUS > slowest {
			slowest = set.Primary().TrainedUS
		}
	}
	merged, err := MergeTableSets(sets)
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: merging %q: %w", app, err)
	}
	for _, d := range f.Devices {
		d.InstallTableSet(app, merged.Clone(), true)
	}
	return merged.Primary(), f.Trainer.WallTimeUS(slowest), nil
}
