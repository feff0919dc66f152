package main

import (
	"sync"
	"time"
)

// sample is one open-loop request's timeline, as offsets from the start
// of its step: when it was due, when a sender picked it up, and when it
// completed.
type sample struct {
	due, sent, done time.Duration
	err             error
}

// late is how long the request waited past its due time for a free
// sender: the generator's lateness, which is the queue wait.
func (s sample) late() time.Duration { return s.sent - s.due }

// latency is the request's time from when it was due to completion, so
// a stall also charges the wait it imposes on later requests.
func (s sample) latency() time.Duration { return s.done - s.due }

// runOpenLoop issues request i at offset dues[i] (ascending) from the
// start, whether or not earlier requests have completed, on at most
// senders concurrent callers of do. It returns once every request has
// completed.
func runOpenLoop(dues []time.Duration, senders int, do func(i int) error) []sample {
	out := make([]sample, len(dues))
	// Sized to the number of sends, so the dispatcher never blocks and a
	// request's wait for a sender shows up as lateness, not as a late due.
	jobs := make(chan int, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].sent = time.Since(start)
				out[i].err = do(i)
				out[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range dues {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = d
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// backlogSlack is how much the median lateness of a step's last third
// may exceed that of its first third before the step counts as building
// a backlog (the generator falling further behind as the step runs).
const backlogSlack = 25 * time.Millisecond

// backlogGrowing compares lateness in the first and last thirds of a
// step, in due order.
func backlogGrowing(s []sample) bool {
	third := len(s) / 3
	if third == 0 {
		return false
	}
	lateMs := func(part []sample) float64 {
		xs := make([]float64, len(part))
		for i, p := range part {
			xs[i] = ms(p.late())
		}
		return median(xs)
	}
	return lateMs(s[len(s)-third:]) > lateMs(s[:third])+ms(backlogSlack)
}
