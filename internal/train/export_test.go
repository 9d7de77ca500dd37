package train

import "warplda/internal/fsio"

// The decoder's allocation bounds, for tests that build manifests just
// past them.
const (
	MaxTracePoints = maxTracePoints
	MaxTopics      = maxTopics
	MaxShards      = maxShards
)

// WriteManifestFile writes the checkpoint's manifest alone to path,
// atomically. The trainer writes manifests only through WriteSharded —
// shards first, manifest as the commit point — so this exists for tests
// that build a manifest the trainer never would.
func (ck *Checkpoint) WriteManifestFile(path string) error {
	_, err := fsio.AtomicWriteFile(path, ".warplda-manifest-*", ck.writeManifestTo)
	return err
}
