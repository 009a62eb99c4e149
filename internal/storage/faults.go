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
// reproducible so the resilience layer's retries and failovers can be
// exercised deterministically. Scheduling them over a run is the
// scenario engine's job (internal/scenario, core.ScenarioRunner); this
// file holds only the imperative controls it calls.

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
// applies the flaky coin flip. A nil error means the operation may proceed.
func (n *Network) gate(ctx context.Context, nodeID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.mu.Lock()
	nd, ok := n.nodes[nodeID]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, nodeID)
	}
	if err := nd.availErr(); err != nil {
		n.mu.Unlock()
		return err
	}
	slow := nd.slow
	flake := false
	if nd.flaky > 0 {
		if n.faultRand == nil {
			n.faultRand = rand.New(rand.NewSource(1))
		}
		flake = n.faultRand.Float64() < nd.flaky
	}
	n.mu.Unlock()
	if slow > 0 {
		t := time.NewTimer(slow)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if flake {
		return fmt.Errorf("%w: %q (transient)", ErrNodeDown, nodeID)
	}
	return nil
}
