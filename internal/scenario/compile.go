package scenario

import "ipls/internal/netsim"

// LossWindows compiles the timed-window events for the discrete-event
// simulator: a timed slow scales the node's links by its factor, and a
// timed partition severs (factor 0) the links of every node outside the
// mainline group.
func (p *Plan) LossWindows() []netsim.LossWindow {
	if p == nil {
		return nil
	}
	var out []netsim.LossWindow
	for _, ev := range p.events {
		if !ev.Window.Timed {
			continue
		}
		switch ev.Kind {
		case Slow:
			out = append(out, netsim.LossWindow{
				Node: ev.Node, From: ev.Window.From, To: ev.Window.To, Factor: ev.Factor,
			})
		case Partition:
			for _, node := range ev.Isolated() {
				out = append(out, netsim.LossWindow{
					Node: node, From: ev.Window.From, To: ev.Window.To,
				})
			}
		}
	}
	return out
}

// Isolated returns the nodes a partition event cuts off from the
// mainline: the members of every group but the first.
func (ev Event) Isolated() []string {
	var out []string
	for _, g := range ev.Groups[1:] {
		out = append(out, g...)
	}
	return out
}
