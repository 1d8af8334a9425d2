package jobs

import "sync"

// Event is one entry in a job's lifecycle feed, the payload behind the
// SSE endpoint. Seq is the per-job event sequence number, so a client
// that reconnects can detect gaps.
type Event struct {
	Seq     int    `json:"seq"`
	Type    string `json:"type"`
	State   State  `json:"state,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Message string `json:"message,omitempty"`
}

// Event types.
const (
	EventQueued    = "queued"
	EventStarted   = "started"
	EventProgress  = "progress"
	EventRetrying  = "retrying"
	EventRecovered = "recovered" // re-queued after a crash or drain
	EventSucceeded = "succeeded"
	EventFailed    = "failed"
	EventCancelled = "cancelled"
)

// maxEventHistory bounds each key's replay buffer; older events are
// dropped from replay (Seq gaps tell a subscriber this happened).
const maxEventHistory = 64

// subBuffer is a live subscriber's channel capacity. A subscriber that
// falls further behind than this loses events (the channel would
// otherwise wedge every publisher); SSE clients see the gap via Seq.
const subBuffer = 64

// Broker fans lifecycle events out to subscribers and keeps a bounded
// per-key replay history, so a poll-then-subscribe client never misses
// the events between its two calls. The job plane keys feeds by job ID;
// the calibration drift plane reuses the same plumbing keyed by device
// name. Construct with NewBroker; a Broker is safe for concurrent use.
type Broker struct {
	mu     sync.Mutex
	feeds  map[string]*feed
	closed bool
}

type feed struct {
	history []Event
	nextSeq int
	subs    map[int]chan Event
	nextSub int
	done    bool // terminal event published; new subscribers get a closed channel
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{feeds: make(map[string]*feed)}
}

func (b *Broker) feedFor(id string) *feed {
	f, ok := b.feeds[id]
	if !ok {
		f = &feed{subs: make(map[int]chan Event)}
		b.feeds[id] = f
	}
	return f
}

// Publish appends an event to id's history and delivers it to every
// subscriber that has room. An event whose State is terminal closes all
// of the key's subscriptions; events with a zero State never terminate
// a feed (the drift plane's feeds are open-ended).
func (b *Broker) Publish(id string, ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	f := b.feedFor(id)
	if f.done {
		return
	}
	ev.Seq = f.nextSeq
	f.nextSeq++
	f.history = append(f.history, ev)
	if len(f.history) > maxEventHistory {
		f.history = f.history[len(f.history)-maxEventHistory:]
	}
	terminal := ev.State.Terminal()
	for key, ch := range f.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than wedge the worker
		}
		if terminal {
			close(ch)
			delete(f.subs, key)
		}
	}
	if terminal {
		f.done = true
	}
}

// Subscribe returns id's replayable history plus a live channel. The
// channel is closed after the key's terminal event (immediately, if one
// was already published). cancel is idempotent and must be called when
// the subscriber goes away.
func (b *Broker) Subscribe(id string) (history []Event, ch <-chan Event, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.feedFor(id)
	history = append([]Event(nil), f.history...)
	c := make(chan Event, subBuffer)
	if f.done || b.closed {
		close(c)
		return history, c, func() {}
	}
	key := f.nextSub
	f.nextSub++
	f.subs[key] = c
	return history, c, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if ch, ok := f.subs[key]; ok {
			close(ch)
			delete(f.subs, key)
		}
		// A feed with no subscriber, no history and no terminal event
		// holds nothing a later subscriber could replay. Dropping it
		// keeps subscriptions to arbitrary names (the drift plane takes
		// any valid device name) from piling up feeds.
		if len(f.subs) == 0 && len(f.history) == 0 && !f.done && b.feeds[id] == f {
			delete(b.feeds, id)
		}
	}
}

// Drop discards a key's feed (retention eviction).
func (b *Broker) Drop(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.feeds[id]; ok {
		for key, ch := range f.subs {
			close(ch)
			delete(f.subs, key)
		}
		delete(b.feeds, id)
	}
}

// Close closes every live subscription (shutdown). Further publishes
// are discarded.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, f := range b.feeds {
		for key, ch := range f.subs {
			close(ch)
			delete(f.subs, key)
		}
	}
}
