package warplda

// Publishing facade: the one publisher of cmd/warplda-train, in process
// or as a live cluster's coordinator, for -publish and -publish-delta
// alike. A
// DeltaPublisher turns a sequence of model snapshots into full
// versioned base publishes and, when its chain length is 1 or more, a
// chain of WARPDLT delta files a serving registry folds into the live
// engine without a full reload.

import (
	"fmt"
	"os"
	"path/filepath"

	"warplda/internal/train"
)

// DeltaPublisher publishes successive snapshots of one model. Every
// base publish runs in one order: the target's delta files are deleted,
// the versioned snapshot <name>@<iter>.bin is written, the latest
// pointer is repointed at it, and old versions are pruned — so a
// polling registry never pairs a base with deltas of another chain.
// With a chain length of 0 every Publish is a base publish. With a
// chain length n ≥ 1 the first Publish is a base publish and starts a
// delta chain, each later call emits <name>.dlt.<gen>, and the call
// after the n-th delta rebases onto a fresh base. Not safe for
// concurrent use.
type DeltaPublisher struct {
	spec string
	// maxChain is the number of deltas before a rebase; 0 publishes
	// every snapshot in full. Longer chains mean cheaper publishes but a
	// longer replay for a registry that starts cold.
	maxChain int
	// keep is the PrunePublishedVersions retention applied after every
	// base publish; <= 0 disables pruning.
	keep  int
	chain *train.DeltaChain
}

// NewDeltaPublisher validates the publish spec, creates its model
// directory, and returns a publisher whose first Publish writes a base.
// maxChain is the delta chain length (0 = full publishing only; a
// negative length is refused).
func NewDeltaPublisher(spec string, maxChain, keep int) (*DeltaPublisher, error) {
	path, _, err := train.PublishPath(spec)
	if err != nil {
		return nil, err
	}
	if maxChain < 0 {
		return nil, fmt.Errorf("warplda: delta chain length %d, want >= 0", maxChain)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return &DeltaPublisher{spec: spec, maxChain: maxChain, keep: keep}, nil
}

// DeltaPublishResult describes one publish.
type DeltaPublishResult struct {
	// Path is the file installed: the versioned snapshot for a full
	// publish, the delta file otherwise.
	Path string
	// Full reports a base (re)publish; Gen/Cells describe the delta
	// otherwise (Gen is 1-based within the current chain).
	Full  bool
	Gen   int64
	Cells int
}

// Publish installs snapshot m at iteration iter: a base snapshot in
// full mode, on the first call and on a rebase; a delta file otherwise.
func (p *DeltaPublisher) Publish(m *Model, iter int) (DeltaPublishResult, error) {
	if p.chain != nil && p.chain.Gen() < int64(p.maxChain) {
		r, err := p.chain.Publish(m.Cw, m.Ck, int64(iter), m.LogLik)
		if err != nil {
			return DeltaPublishResult{}, err
		}
		return DeltaPublishResult{Path: r.Path, Gen: r.Gen, Cells: r.Cells}, nil
	}
	// Base publish. Deltas of any previous chain — this publisher's or
	// another writer's — go away BEFORE the base repoints, so a watcher
	// never pairs the new base with them.
	if _, err := train.RemoveDeltaFiles(p.spec); err != nil {
		return DeltaPublishResult{}, err
	}
	vPath, _, err := train.VersionedPublishPath(p.spec, iter)
	if err != nil {
		return DeltaPublishResult{}, err
	}
	if _, err := m.WriteFile(vPath); err != nil {
		return DeltaPublishResult{}, fmt.Errorf("warplda: publishing base snapshot: %w", err)
	}
	if _, err := train.PublishLatest(p.spec, iter); err != nil {
		return DeltaPublishResult{}, err
	}
	if p.keep > 0 {
		if _, err := train.PrunePublishedVersions(p.spec, p.keep); err != nil {
			return DeltaPublishResult{}, err
		}
	}
	if p.maxChain > 0 {
		chain, err := train.NewDeltaChain(p.spec, m.V, m.Cfg.K, m.Cw, m.Ck)
		if err != nil {
			return DeltaPublishResult{}, err
		}
		p.chain = chain
	}
	return DeltaPublishResult{Path: vPath, Full: true}, nil
}
