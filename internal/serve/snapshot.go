package serve

import (
	tdgraph "github.com/tdgraph/tdgraph"
)

// SnapshotSource reads the newest shippable checkpoint generation for
// follower reseeds. It satisfies the replica layer's SnapshotSource
// interface structurally (serve never imports the transport), and it
// reads straight from the rotating generation files, so it keeps
// working while the pipeline cuts new generations underneath it: each
// NewestSnapshot call re-resolves the newest valid generation.
type SnapshotSource struct {
	ck *tdgraph.Checkpointer
}

// SnapshotSource returns a source over this pipeline's own checkpoint
// generations, or nil when checkpointing is disabled (callers must
// check: a typed nil inside an interface would defeat their nil test).
func (p *Pipeline) SnapshotSource() *SnapshotSource {
	if p.ck == nil {
		return nil
	}
	return &SnapshotSource{ck: p.ck}
}

// NewestSnapshot returns the newest checkpoint generation whose header
// validates: the checkpoint file's raw bytes and the WAL sequence they
// say they cover.
func (s *SnapshotSource) NewestSnapshot() (uint64, []byte, error) {
	data, meta, err := s.ck.NewestWithMeta()
	if err != nil {
		return 0, nil, err
	}
	seq, err := decodeSeqMeta(meta)
	if err != nil {
		return 0, nil, err
	}
	return seq, data, nil
}
