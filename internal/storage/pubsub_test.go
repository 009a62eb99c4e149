package storage

import (
	"fmt"
	"testing"
)

func TestPubSubPublishFetch(t *testing.T) {
	ps := NewPubSub()
	ps.Publish("t", "a", []byte("m0"))
	ps.Publish("t", "b", []byte("m1"))
	ps.Publish("other", "c", []byte("x"))

	msgs, next := ps.Fetch("t", 0)
	if len(msgs) != 2 || next != 2 {
		t.Fatalf("got %d msgs, next=%d", len(msgs), next)
	}
	if msgs[0].From != "a" || string(msgs[1].Data) != "m1" {
		t.Fatalf("wrong messages: %+v", msgs)
	}
	// Cursor resumes where it left off.
	ps.Publish("t", "d", []byte("m2"))
	msgs, next = ps.Fetch("t", next)
	if len(msgs) != 1 || msgs[0].From != "d" || next != 3 {
		t.Fatalf("cursor resume broken: %+v next=%d", msgs, next)
	}
	// Empty fetch.
	msgs, _ = ps.Fetch("t", next)
	if len(msgs) != 0 {
		t.Fatal("expected no new messages")
	}
	// Unknown topic.
	msgs, next = ps.Fetch("nope", 0)
	if len(msgs) != 0 || next != 0 {
		t.Fatal("unknown topic should be empty")
	}
}

func TestPubSubForget(t *testing.T) {
	ps := NewPubSub()
	ps.Publish("t", "a", []byte("x"))
	ps.Publish("t", "a", []byte("y"))
	ps.Forget("t")
	msgs, next := ps.Fetch("t", 0)
	if len(msgs) != 0 {
		t.Fatal("forgotten topic still returns messages")
	}
	// The cursor survives so sequence numbers stay monotonic.
	if next != 2 {
		t.Fatalf("cursor reset by Forget: %d", next)
	}
	seq := ps.Publish("t", "a", []byte("z"))
	if seq != 2 {
		t.Fatalf("sequence restarted after Forget: %d", seq)
	}
	if msgs, _ := ps.Fetch("t", 0); len(msgs) != 1 || msgs[0].Seq != 2 {
		t.Fatalf("log after Forget = %+v", msgs)
	}
}

func TestTopicNaming(t *testing.T) {
	if Topic("task", 3, 1) != "task/iter-3/part-1" {
		t.Fatalf("Topic() = %s", Topic("task", 3, 1))
	}
}

func TestNetworkPubSubIntegration(t *testing.T) {
	n, _ := newTestNetwork(t, 1, 1)
	n.Announce("t", "agg", []byte("record"))
	msgs, next := n.Listen("t", 0)
	if len(msgs) != 1 || next != 1 || string(msgs[0].Data) != "record" {
		t.Fatalf("network pubsub broken: %+v", msgs)
	}
	n.ForgetTopic("t")
	if msgs, _ := n.Listen("t", 0); len(msgs) != 0 {
		t.Fatal("ForgetTopic ineffective")
	}
}

func TestPubSubDataIsolated(t *testing.T) {
	// Published payloads must be copied, not aliased.
	ps := NewPubSub()
	payload := []byte("mutable")
	ps.Publish("t", "a", payload)
	payload[0] = 'X'
	msgs, _ := ps.Fetch("t", 0)
	if string(msgs[0].Data) != "mutable" {
		t.Fatal("payload aliased caller memory")
	}
}

func TestPubSubManyTopics(t *testing.T) {
	ps := NewPubSub()
	for i := 0; i < 50; i++ {
		ps.Publish(fmt.Sprintf("topic-%d", i), "a", []byte{1})
	}
	for i := 0; i < 50; i++ {
		msgs, _ := ps.Fetch(fmt.Sprintf("topic-%d", i), 0)
		if len(msgs) != 1 {
			t.Fatalf("topic %d lost its message", i)
		}
	}
}
