// Event delivery: the one replay log and the one send policy behind
// every event stream. Job.Events and Subscription.Events replay an
// eventLog; AskStream sends straight to its channel. All three send
// through deliver, so a slow reader and an abandoned one are told
// apart the same way everywhere.
package core

import (
	"sync"
	"time"
)

// streamBuffer decouples a producer from its reader: a run can get
// this many events ahead before a send blocks on the reader.
const streamBuffer = 16

// subscriberGrace bounds how long a send waits on a reader that has
// stopped draining once the producer is no longer live (the job
// finished or was cancelled, the subscription closed, the AskStream
// context ended). Live readers drain well within it; abandoned ones
// stop holding a goroutine after it.
const subscriberGrace = 5 * time.Second

// deliver sends ev on ch, preferring delivery over giving up: buffer
// space or a ready receiver always wins, even once live has closed.
// While live is open the send blocks; after it closes, a reader that
// takes nothing for subscriberGrace is presumed gone and deliver
// reports false.
func deliver[E any](ch chan<- E, ev E, live <-chan struct{}) bool {
	select {
	case ch <- ev:
		return true
	default:
	}
	select {
	case ch <- ev:
		return true
	case <-live:
	}
	t := time.NewTimer(subscriberGrace)
	defer t.Stop()
	select {
	case ch <- ev:
		return true
	case <-t.C:
		return false
	}
}

// eventLog is an append-only log of one producer's events. Every
// stream replays it from the first event — a late reader sees the
// full history — then follows it live, and closes after the log is
// closed. The zero eventLog is empty and open.
type eventLog[E any] struct {
	mu     sync.Mutex
	cond   sync.Cond // L is set to &mu by the first reader that waits
	events []E
	closed bool
}

// add appends ev and wakes waiting streams.
func (l *eventLog[E]) add(ev E) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close ends the log: streams close once they have delivered every
// event. Closing twice is a no-op.
func (l *eventLog[E]) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// len returns how many events the log holds.
func (l *eventLog[E]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// since blocks until the log holds more than n events or is closed,
// and returns the events from index n on: empty only once the log is
// closed and fully read. The log is append-only, so the caller may
// read the returned slice without the lock.
func (l *eventLog[E]) since(n int) []E {
	l.mu.Lock()
	defer l.mu.Unlock()
	for n >= len(l.events) && !l.closed {
		if l.cond.L == nil {
			l.cond.L = &l.mu
		}
		l.cond.Wait()
	}
	return l.events[n:]
}

// stream returns a new channel that replays the log and follows it
// live, sending through deliver with live as the producer's liveness:
// once live closes, a reader that stops draining forfeits the rest
// after subscriberGrace and the channel closes.
func (l *eventLog[E]) stream(live <-chan struct{}) <-chan E {
	ch := make(chan E, streamBuffer)
	go func() {
		defer close(ch)
		for n := 0; ; {
			batch := l.since(n)
			if len(batch) == 0 {
				return
			}
			for _, ev := range batch {
				if !deliver(ch, ev, live) {
					return
				}
			}
			n += len(batch)
		}
	}()
	return ch
}
