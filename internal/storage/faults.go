package storage

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Fault injection for the storage network. The paper assumes an
// honest-but-unreliable substrate (§III-A): nodes crash, recover, respond
// slowly, or fail intermittently. These controls make every failure mode
// reproducible so the session's failovers can be exercised
// deterministically. Scheduling them over a run is the scenario engine's
// job (internal/scenario, core.ScenarioRunner); this file holds only the
// imperative controls it calls.

// Slow makes every operation served by the node take at least d. The delay
// honors the caller's context, so a deadline that expires mid-wait cancels
// the operation. d <= 0 clears the fault.
func (n *Network) Slow(id string, d time.Duration) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if d < 0 {
		d = 0
	}
	nd.slow = d
	return nil
}

// Flaky makes the node fail each operation independently with probability
// p (0 clears the fault), reporting a transient ErrNodeDown. Failures draw
// from the network's seeded fault source (SetFaultSeed), so runs replay.
func (n *Network) Flaky(id string, p float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	nd.flaky = p
	return nil
}

// SetFaultSeed seeds the random source behind flaky-node coin flips so
// fault scenarios reproduce exactly.
func (n *Network) SetFaultSeed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultRand = rand.New(rand.NewSource(seed))
}

// gate admits one operation against a node: it rejects immediately when
// the context is done or the node is down/unknown, serves the node's
// injected slowness (context-aware, without holding the network lock), and
// applies the flaky coin flip. It returns the admitted node, whose store
// the operation then uses without the lock.
func (n *Network) gate(ctx context.Context, nodeID string) (*Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	nd, f, err := n.admitLocked(nodeID)
	n.mu.Unlock()
	if err == nil {
		err = f.serve(ctx, nodeID)
	}
	if err != nil {
		return nil, err
	}
	return nd, nil
}

// fault is what an admitted operation must suffer before it proceeds.
type fault struct {
	slow  time.Duration
	flake bool
}

// admitLocked looks up a node that can serve and draws its faults. Callers
// hold n.mu.
func (n *Network) admitLocked(nodeID string) (*Node, fault, error) {
	nd, ok := n.nodes[nodeID]
	if !ok {
		return nil, fault{}, fmt.Errorf("%w: %q", ErrUnknownNode, nodeID)
	}
	if err := nd.availErr(); err != nil {
		return nil, fault{}, err
	}
	f := fault{slow: nd.slow}
	if nd.flaky > 0 {
		if n.faultRand == nil {
			n.faultRand = rand.New(rand.NewSource(1))
		}
		f.flake = n.faultRand.Float64() < nd.flaky
	}
	return nd, f, nil
}

// serve waits out the injected slowness, honoring ctx, and applies the
// flaky coin flip. Callers do not hold n.mu.
func (f fault) serve(ctx context.Context, nodeID string) error {
	if f.slow > 0 {
		t := time.NewTimer(f.slow)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if f.flake {
		return fmt.Errorf("%w: %q (transient)", ErrNodeDown, nodeID)
	}
	return nil
}
