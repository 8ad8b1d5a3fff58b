package core

import (
	"slices"
	"testing"
	"time"
)

// TestEventLogReplay opens streams on one log before any append, while
// a producer is appending, and after the log closed: every stream must
// deliver the identical full sequence and then close. The log holds
// many times streamBuffer events, so each stream also blocks on its
// reader while the producer is live. The last append and the close
// each come once every open stream has caught up and waits for more,
// so each must wake them.
func TestEventLogReplay(t *testing.T) {
	const n = 20 * streamBuffer
	var log eventLog[int]
	live := make(chan struct{})
	type reader struct {
		has [2]chan struct{} // has[k] is closed when event n-2+k arrives
		got chan []int       // everything received, once the stream closed
	}
	read := func(ch <-chan int) reader {
		r := reader{[2]chan struct{}{make(chan struct{}), make(chan struct{})}, make(chan []int, 1)}
		go func() {
			var got []int
			for v := range ch {
				got = append(got, v)
				if k := len(got) - (n - 1); k == 0 || k == 1 {
					close(r.has[k])
				}
			}
			r.got <- got
		}()
		return r
	}
	timeout := time.After(10 * time.Second)
	await := func(readers []reader, k int) {
		t.Helper()
		for i, r := range readers {
			select {
			case <-r.has[k]:
			case <-timeout:
				t.Fatalf("stream %d never delivered event %d", i, n-2+k)
			}
		}
	}

	readers := []reader{read(log.stream(live)), read(log.stream(live))}
	half, resume, produced := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		for i := 0; i < n-1; i++ {
			if i == n/2 {
				close(half)
				<-resume
			}
			log.add(i)
		}
		close(produced)
	}()
	<-half
	readers = append(readers, read(log.stream(live)), read(log.stream(live)))
	close(resume)
	<-produced
	await(readers, 0)
	log.add(n - 1)
	await(readers, 1)
	log.close()
	log.close() // closing twice is a no-op
	close(live)
	readers = append(readers, read(log.stream(live)))

	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	for i, r := range readers {
		select {
		case got := <-r.got:
			if !slices.Equal(got, want) {
				t.Errorf("stream %d delivered %d events %v..., want 0..%d in order", i, len(got), got[:min(len(got), 8)], n-1)
			}
		case <-timeout:
			t.Fatalf("stream %d never closed", i)
		}
	}
	if got := log.len(); got != n {
		t.Errorf("log holds %d events, want %d", got, n)
	}
}
