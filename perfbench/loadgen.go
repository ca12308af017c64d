package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// Request is one HTTP call an op makes.
type Request struct {
	Method string
	Path   string
	Body   []byte
}

// Op is one scheduled request of an open-loop run.
type Op struct {
	// At is the intended send time, as an offset from the run's start.
	At time.Duration
	// Class names the latency sample the op is reported under ("query",
	// "write", "bulk", ...).
	Class string
	Req   Request
	// Want is the status code that acknowledges the op.
	Want int
	// Keep retains the reply body for the oracle.
	Keep bool
	// Q and W are what the op means to the oracle and the traced replay:
	// the query it asks, or the writes it makes.
	Q *qspec
	W []write
	// Probe marks an op whose effect the workload also times elsewhere
	// (a subscription delta, follower visibility).
	Probe bool
}

// Outcome is what happened to one op. Latency runs from the op's intended
// send time, so a stall is charged to every request queued behind it.
type Outcome struct {
	Late    time.Duration // dispatch time − intended time (generator lateness)
	Latency time.Duration // reply received − intended time
	Sent    time.Time     // when a connection actually sent it
	Status  int
	Err     error
	Body    []byte
}

// OK reports whether the op was acknowledged with its wanted status.
func (o *Outcome) OK(want int) bool { return o.Err == nil && o.Status == want }

// newConn returns a client that holds exactly one TCP connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole reply.
func do(ctx context.Context, c *http.Client, base string, r Request) (int, []byte, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, base+r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// RunOpenLoop sends ops on their schedule over conns connections and
// returns one Outcome per op. A dispatcher releases each op at its
// intended time whether or not earlier ops have completed; ops wait for a
// free connection in a FIFO queue, and that wait counts in their latency.
// onDone, when non-nil, runs on the connection's goroutine right after
// each op completes (in schedule order when conns is 1). ops must be
// sorted by At.
func RunOpenLoop(ctx context.Context, base string, ops []Op, conns int, onDone func(i int, o *Outcome)) []Outcome {
	out := make([]Outcome, len(ops))
	// Sized to the schedule so the dispatcher never blocks: a backlog
	// queues here, not in the generator's timing.
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		c := newConn()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.CloseIdleConnections()
			for i := range queue {
				o := &out[i]
				o.Sent = time.Now()
				o.Status, o.Body, o.Err = do(ctx, c, base, ops[i].Req)
				o.Latency = time.Since(start.Add(ops[i].At))
				if o.Err == nil && o.Status != ops[i].Want {
					o.Err = fmt.Errorf("%s %s: status %d: %s", ops[i].Req.Method, ops[i].Req.Path, o.Status, bytes.TrimSpace(o.Body))
				}
				if !ops[i].Keep {
					o.Body = nil
				}
				if onDone != nil {
					onDone(i, o)
				}
			}
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].At)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		out[i].Late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// classLatencies collects the latency sample (ms) of every op of a class;
// a failed op enters as +Inf.
func classLatencies(ops []Op, out []Outcome, class string) []float64 {
	var xs []float64
	for i := range ops {
		if ops[i].Class != class {
			continue
		}
		if out[i].OK(ops[i].Want) {
			xs = append(xs, ms(out[i].Latency))
		} else {
			xs = append(xs, math.Inf(1))
		}
	}
	return xs
}

// lateness returns every op's dispatch lateness in ms.
func lateness(out []Outcome) []float64 {
	xs := make([]float64, len(out))
	for i := range out {
		xs[i] = ms(out[i].Late)
	}
	return xs
}

// uniformSchedule spaces n ops evenly at rate per second starting at
// offset; gen fills in the op for each slot.
func uniformSchedule(n int, rate float64, offset time.Duration, gen func(i int) Op) []Op {
	ops := make([]Op, n)
	step := time.Duration(float64(time.Second) / rate)
	for i := range ops {
		ops[i] = gen(i)
		ops[i].At = offset + time.Duration(i)*step
	}
	return ops
}
