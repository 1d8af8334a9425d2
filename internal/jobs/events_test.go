package jobs

import (
	"strconv"
	"testing"
)

// feedCount reports how many feeds the broker holds.
func feedCount(b *Broker) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.feeds)
}

// TestBrokerCancelDropsEmptyFeeds: subscribing to a name creates its
// feed, so a client that subscribes to many distinct names and hangs up
// must not leave one feed per name behind. 1000 subscribe+cancel calls
// on distinct names leave no feed.
func TestBrokerCancelDropsEmptyFeeds(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 1000; i++ {
		_, _, cancel := b.Subscribe("device-" + strconv.Itoa(i))
		cancel()
	}
	if n := feedCount(b); n != 0 {
		t.Fatalf("%d feeds left after 1000 subscribe+cancel calls, want 0", n)
	}
}

// TestBrokerCancelKeepsLiveFeeds: cancel drops a feed only when nothing
// in it is worth keeping. A feed with another subscriber still delivers
// to it, and a feed with history still replays it.
func TestBrokerCancelKeepsLiveFeeds(t *testing.T) {
	b := NewBroker()
	_, _, cancelA := b.Subscribe("shared")
	_, ch, cancelB := b.Subscribe("shared")
	cancelA()
	b.Publish("shared", Event{Type: "cycle"})
	if ev := <-ch; ev.Type != "cycle" {
		t.Fatalf("remaining subscriber got %+v, want the published cycle", ev)
	}
	cancelB()
	if n := feedCount(b); n != 1 {
		t.Fatalf("%d feeds after cancelling the last subscriber of a feed with history, want 1", n)
	}
	history, _, cancel := b.Subscribe("shared")
	defer cancel()
	if len(history) != 1 || history[0].Type != "cycle" {
		t.Fatalf("replayed history = %+v, want the one published cycle", history)
	}
}
