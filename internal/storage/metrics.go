package storage

import "ipls/internal/obs"

// nodeMetrics are the per-node instruments, labelled with the node ID.
// Every field may be nil (a no-op) when the network is not instrumented.
type nodeMetrics struct {
	// bytesUploaded counts payload bytes written to this node by Put;
	// bytesDownloaded counts payload bytes served by Get/Fetch/MergeGet.
	bytesUploaded   *obs.Counter
	bytesDownloaded *obs.Counter
	// blocksStored counts primary writes; blocksReplicated counts replica
	// copies placed on this node by the placement policy.
	blocksStored     *obs.Counter
	blocksReplicated *obs.Counter
}

func resolveNodeMetrics(reg *obs.Registry, id string) *nodeMetrics {
	return &nodeMetrics{
		bytesUploaded:    reg.Counter("bytes_uploaded_total", "node", id),
		bytesDownloaded:  reg.Counter("bytes_downloaded_total", "node", id),
		blocksStored:     reg.Counter("blocks_stored_total", "node", id),
		blocksReplicated: reg.Counter("blocks_replicated_total", "node", id),
	}
}

// SetMetrics points the network's instrumentation at a registry. The
// network always has one (NewNetwork creates a private registry so
// counters like remote_fetches_total work with no setup); passing nil
// resets to a fresh private registry. Counter values do not carry over.
func (n *Network) SetMetrics(reg *obs.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setMetricsLocked(reg)
}

func (n *Network) setMetricsLocked(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n.reg = reg
	n.remoteFetchCtr = reg.Counter("remote_fetches_total")
	n.mergeOps = reg.Counter("merge_ops_total")
	// merge_bytes_saved_total is the §III-E payoff: bytes the aggregator
	// did NOT download because the provider pre-aggregated the blocks
	// (sum of merged input sizes minus the single output size).
	n.mergeBytesSaved = reg.Counter("merge_bytes_saved_total")
	// repair_blocks_total counts replica copies created by RepairScan;
	// under_replicated_blocks is the scan's closing census of blocks still
	// below target (0 means the replication factor is fully restored).
	n.repairCtr = reg.Counter("repair_blocks_total")
	n.underRepl = reg.Gauge("under_replicated_blocks")
	// partition_active_nodes gauges how many nodes the current network
	// split isolates (0 = no partition); partition_heals_total counts
	// closed partition windows (each followed by re-announce + repair).
	n.partitionActive = reg.Gauge("partition_active_nodes")
	n.partitionHeals = reg.Counter("partition_heals_total")
	// Block-cache hit ratio over the disk backend, and GC reclamation.
	n.cacheHits = reg.Counter("storage_cache_hits_total")
	n.cacheMisses = reg.Counter("storage_cache_misses_total")
	n.gcBlocks = reg.Counter("storage_gc_blocks_total")
	n.gcBytes = reg.Counter("storage_gc_bytes_total")
	for _, nd := range n.nodes {
		nd.metrics.Store(resolveNodeMetrics(reg, nd.id))
		if cs, ok := nd.store.(*CachedStore); ok {
			cs.SetMetrics(n.cacheHits, n.cacheMisses)
		}
	}
}
