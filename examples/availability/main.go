// Availability demo: the §VI mechanisms that keep protocol data alive on
// an unreliable storage network, working together —
//
//   - rendezvous-hash replica placement (uniform, collusion-resistant),
//   - content routing around failed nodes,
//   - Merkle-DAG chunking for large objects,
//   - anti-entropy repair after a permanent departure (Depart + RepairScan).
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"ipls"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// checkpointChunk is the chunk size the demo stores its checkpoint at.
const checkpointChunk = 64 * 1024

// checkpointPayload is the demo's "large model checkpoint".
func checkpointPayload() []byte {
	checkpoint := make([]byte, 300_000)
	rand.New(rand.NewSource(1)).Read(checkpoint)
	return checkpoint
}

func run(w io.Writer) error {
	net, err := ipls.NewStorageNetworkOpts(ipls.StorageNetworkOptions{CurveName: "secp256k1", Replicas: 2})
	if err != nil {
		return err
	}
	net.SetPlacement(ipls.PlacementRendezvous)
	nodes := make([]string, 6)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("ipfs-%d", i)
		net.AddNode(nodes[i])
	}

	// A "large model checkpoint" stored as a chunked Merkle DAG.
	checkpoint := checkpointPayload()
	root, err := net.PutDAG(context.Background(), "ipfs-0", checkpoint, checkpointChunk)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stored a %d-byte checkpoint as a Merkle DAG, root %s (%d blocks)\n",
		root.Size, root.CID.Short(), ipls.DAGBlocks(root.Size, checkpointChunk))

	// A gradient block, replicated on two nodes chosen by rendezvous hash.
	gradient := []byte("a gradient partition that must stay available")
	c, err := net.Put(context.Background(), "ipfs-1", gradient)
	if err != nil {
		return err
	}

	// Node failures: replication + content routing keep data reachable.
	if err := net.Fail("ipfs-0"); err != nil {
		return err
	}
	if err := net.Fail("ipfs-1"); err != nil {
		return err
	}
	restored, err := net.GetDAG(context.Background(), "ipfs-3", root)
	if err != nil {
		return fmt.Errorf("checkpoint unrecoverable: %w", err)
	}
	fmt.Fprintf(w, "after failing 2 of 6 nodes the %d-byte checkpoint still reassembles bit-exactly: %v\n",
		len(restored), string(restored[:8]) == string(checkpoint[:8]) && len(restored) == len(checkpoint))
	if got, err := net.Fetch(context.Background(), c); err == nil && string(got) == string(gradient) {
		fmt.Fprintln(w, "the gradient block is likewise still retrievable via content routing")
	} else {
		fmt.Fprintln(w, "the gradient block's replica set was wiped out — with replication factor 2,")
		fmt.Fprintln(w, "losing both holders loses the block (raise the factor to survive more failures)")
	}

	// Permanent membership change: the crashed nodes come back, but ipfs-5
	// leaves for good. A departure silently erodes the replication factor
	// of every block it held — until an anti-entropy RepairScan copies the
	// survivors' replicas onto fresh live nodes.
	if err := net.Recover("ipfs-0"); err != nil {
		return err
	}
	if err := net.Recover("ipfs-1"); err != nil {
		return err
	}
	if err := net.Depart("ipfs-5"); err != nil {
		return err
	}
	eroded := len(net.UnderReplicated())
	fmt.Fprintf(w, "ipfs-5 departed permanently, leaving %d blocks below replication factor\n", eroded)
	rep, err := net.RepairScan(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "repair scan: %d blocks scanned, %d under-replicated, %d replica copies created, %d lost\n",
		rep.Scanned, rep.UnderReplicated, rep.Repaired, rep.Lost)
	if rep.Remaining != 0 {
		return fmt.Errorf("repair left %d blocks under-replicated", rep.Remaining)
	}
	if remaining := len(net.UnderReplicated()); remaining != 0 {
		return fmt.Errorf("under-replicated census disagrees with the repair report: %d blocks", remaining)
	}
	restored, err = net.GetDAG(context.Background(), "ipfs-3", root)
	if err != nil {
		return fmt.Errorf("checkpoint unreadable after repair: %w", err)
	}
	fmt.Fprintf(w, "replication factor restored on the 5 remaining nodes; the checkpoint still reassembles bit-exactly: %v\n",
		len(restored) == len(checkpoint))
	return nil
}
