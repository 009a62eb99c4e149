package netsim

import (
	"fmt"
	"time"
)

// LossWindow describes a scheduled degradation of one node's links: during
// the virtual-time window [From, To) both the uplink and downlink run at
// Factor times their configured capacity. Factor 0 severs the node's links
// completely — in-flight transfers stall and resume when the window ends.
type LossWindow struct {
	Node     string
	From, To time.Duration
	Factor   float64
}

// ScheduleLinkLoss registers a loss window, to be enacted by a watcher
// process over the virtual clock: at From the node's capacities are scaled
// and every active flow's fair-share rate is recomputed, at To they are
// restored. Must be called before Run. Windows for the same node must not
// overlap (each watcher restores the capacities it saw at its start).
func (e *Env) ScheduleLinkLoss(w LossWindow) error {
	n, ok := e.nodes[w.Node]
	if !ok {
		return fmt.Errorf("netsim: link loss for unknown node %q", w.Node)
	}
	if w.From < 0 || w.To <= w.From {
		return fmt.Errorf("netsim: link loss window [%v, %v) is empty", w.From, w.To)
	}
	if w.Factor < 0 || w.Factor >= 1 {
		return fmt.Errorf("netsim: link loss factor %v outside [0, 1)", w.Factor)
	}
	e.Go(fmt.Sprintf("linkloss:%s", w.Node), func() {
		e.Sleep(w.From)
		up, down := n.UpBps, n.DownBps
		n.UpBps, n.DownBps = up*w.Factor, down*w.Factor
		e.recomputeRates()
		e.Sleep(w.To - w.From)
		n.UpBps, n.DownBps = up, down
		e.recomputeRates()
	})
	return nil
}
