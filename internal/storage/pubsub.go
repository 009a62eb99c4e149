package storage

import (
	"fmt"
	"sync"
)

// Announcement is one pub/sub message: IPFS pub/sub is how the paper's
// aggregators "publish their IPFS hashes for their partial updates"
// (§IV-B), so payloads are small — typically a serialized directory record.
type Announcement struct {
	Seq   int    `json:"seq"`
	Topic string `json:"topic"`
	From  string `json:"from"`
	Data  []byte `json:"data"`
}

// PubSub is a topic-based announcement log attached to the storage
// network, mirroring IPFS pub/sub. Messages are retained with sequence
// numbers so subscribers poll with a cursor (in-process and over RPC)
// without a server-push channel.
type PubSub struct {
	mu    sync.Mutex
	nexts map[string]int
	logs  map[string][]Announcement
}

// NewPubSub creates an empty pub/sub bus.
func NewPubSub() *PubSub {
	return &PubSub{
		nexts: make(map[string]int),
		logs:  make(map[string][]Announcement),
	}
}

// Topic builds the conventional topic name for a task's partition in an
// iteration.
func Topic(taskID string, iter, partition int) string {
	return fmt.Sprintf("%s/iter-%d/part-%d", taskID, iter, partition)
}

// Publish appends an announcement to the topic log. It returns the
// message's sequence number.
func (ps *PubSub) Publish(topic, from string, data []byte) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	a := Announcement{
		Seq:   ps.nexts[topic],
		Topic: topic,
		From:  from,
		Data:  append([]byte(nil), data...),
	}
	ps.nexts[topic]++
	ps.logs[topic] = append(ps.logs[topic], a)
	return a.Seq
}

// Fetch returns every announcement on topic with Seq >= since, plus the
// next cursor value. This is the polling interface used over RPC.
func (ps *PubSub) Fetch(topic string, since int) ([]Announcement, int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	next := ps.nexts[topic]
	var out []Announcement
	for _, a := range ps.logs[topic] {
		if a.Seq >= since {
			out = append(out, a)
		}
	}
	return out, next
}

// Forget drops a topic's retained log (used by per-iteration cleanup).
func (ps *PubSub) Forget(topic string) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.logs, topic)
	// The cursor survives so late Fetch calls don't replay stale data.
}
