package core

import (
	"context"
	"fmt"

	"ipls/internal/dag"
	"ipls/internal/model"
	"ipls/internal/storage"
)

// SaveCheckpoint stores a global parameter vector in the storage network as
// a chunked Merkle DAG, so a joining trainer can bootstrap the current
// model from any replica and verify every chunk against the root CID.
func SaveCheckpoint(ctx context.Context, net *storage.Network, nodeID string, params []float64) (dag.Ref, error) {
	return net.PutDAG(ctx, nodeID, model.EncodeFloats(params), 0)
}

// LoadCheckpoint reassembles and decodes a checkpoint.
func LoadCheckpoint(ctx context.Context, net *storage.Network, nodeID string, ref dag.Ref) ([]float64, error) {
	data, err := net.GetDAG(ctx, nodeID, ref)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	return model.DecodeFloats(data)
}

// Checkpoint stores the task's current global model in the storage network.
func (t *Task) Checkpoint(ctx context.Context, net *storage.Network, nodeID string) (dag.Ref, error) {
	return SaveCheckpoint(ctx, net, nodeID, t.global)
}
