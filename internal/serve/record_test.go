package serve

import (
	"context"
	"errors"
	"testing"
)

// TestFinishPublishesTerminalEventAtomically is the regression test for a
// stream truncation: finish used to mark the job final, unlock, and only
// then append the terminal event, so a /stream follower that polled in
// between saw a final job with an exhausted log and closed the stream
// without a done event. A poller spinning on snapshot while finish runs
// must never see final == true unless the log ends in the terminal event.
func TestFinishPublishesTerminalEventAtomically(t *testing.T) {
	terminal := map[string]bool{"done": true, "error": true, "cancelled": true}
	errs := []error{nil, context.Canceled, errors.New("boom")}
	for i := 0; i < 3000; i++ {
		rec := newJobRecord("job")
		rec.append(Event{Type: "progress", Done: 1, Total: 2})
		started := make(chan struct{})
		bad := make(chan string, 1)
		go func() {
			close(started)
			for {
				evs, _, final := rec.snapshot(0)
				if !final {
					continue
				}
				if last := evs[len(evs)-1]; !terminal[last.Type] {
					bad <- last.Type
				}
				close(bad)
				return
			}
		}()
		<-started
		rec.finish(errs[i%len(errs)])
		if typ, ok := <-bad; ok {
			t.Fatalf("iteration %d: final job observed with last event %q, not a terminal event", i, typ)
		}
	}
}
