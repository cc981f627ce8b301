package coordinator

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/mq"
	"repro/internal/obs"
)

// DrainEach processes queued messages through a three-stage concurrent
// pipeline until the queue is empty, limit messages have been dispatched
// (limit <= 0 means no limit), or ctx is cancelled:
//
//	dispatcher -> worker pool -> integration lanes
//
// A single dispatcher leases messages from the queue; the worker pool
// (SetWorkers, default GOMAXPROCS) runs classification, extraction and
// question answering in parallel; and one integration-lane goroutine per
// Integrator lane folds the workers' templates into amortized database
// batches (SetBatchSize), acknowledging each batch with one
// group-committed queue operation. Workers route each message's template
// group to its lane (Integrator.Route), so every store still sees all
// its writes from a single goroutine — the probabilistic integration
// path needs no cross-worker coordination — while lanes for different
// shards commit batches and group-ack in parallel. With one worker every
// lane integrates its messages in queue order.
//
// Results stream: emit is called once per finished message — (outcome,
// nil) on success, (nil, err) on failure — as the pipeline completes it,
// so a million-message drain never buffers every outcome in memory.
// Calls to emit are serialised (never concurrent) but arrive in
// completion order, not queue order. Failed messages are negatively
// acknowledged for redelivery; after redelivery exhaustion they
// dead-letter. The drain waits only for the messages it leased itself:
// a lease held elsewhere (a concurrent ProcessOne, another drain) is
// left to its holder.
func (c *Coordinator) DrainEach(ctx context.Context, limit int, emit func(*Outcome, error)) {
	sink := &drainSink{emit: emit}
	jobs := make(chan mq.Message)
	// Each lane's buffer must fit a full batch on top of one in-flight
	// job per worker, or the group commit could never amortize past the
	// worker count.
	lanes := make([]chan integrationJob, c.di.Lanes())
	for i := range lanes {
		lanes[i] = make(chan integrationJob, c.workers+c.batchSize)
	}
	// leased counts this drain's messages not yet acked or nacked. poke
	// wakes the dispatcher after any of them settles so it can re-check
	// the queue; capacity 1 makes the send non-blocking while never
	// losing the "state changed" edge.
	var leased atomic.Int64
	poke := make(chan struct{}, 1)
	settled := func(n int) {
		leased.Add(-int64(n))
		select {
		case poke <- struct{}{}:
		default:
		}
	}

	var workersWG sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			for m := range jobs {
				if job, lane, ok := c.frontHalf(ctx, m, sink); ok {
					lanes[lane] <- job
				} else {
					settled(1)
				}
			}
		}()
	}

	var lanesWG sync.WaitGroup
	for i := range lanes {
		lanesWG.Add(1)
		go func(lane int, integ <-chan integrationJob) {
			defer lanesWG.Done()
			c.runIntegrator(ctx, lane, integ, sink, settled)
		}(i, lanes[i])
	}

	dispatched := 0
	for (limit <= 0 || dispatched < limit) && ctx.Err() == nil {
		m, ok := c.queue.Dequeue()
		if !ok {
			// Empty queue: done only once none of this drain's messages
			// is in flight — a worker or lane may still nack one back for
			// redelivery.
			if leased.Load() > 0 {
				select {
				case <-poke:
				case <-ctx.Done():
				}
				continue
			}
			// A nack can land between the empty Dequeue and the leased
			// check, moving a message back to pending; with none of ours
			// leased any such message is visible to one more Dequeue, so
			// only an empty retry proves the drain is complete.
			m, ok = c.queue.Dequeue()
			if !ok {
				break
			}
		}
		dispatched++
		leased.Add(1)
		select {
		case jobs <- m:
		case <-ctx.Done():
			_ = c.queue.Nack(m.ID)
			leased.Add(-1)
		}
	}
	close(jobs)
	workersWG.Wait()
	for _, integ := range lanes {
		close(integ)
	}
	lanesWG.Wait()
}

// Drain is DrainEach collecting the stream into slices — outcomes in
// completion order — for callers whose drains fit in memory.
func (c *Coordinator) Drain(ctx context.Context, limit int) (outs []*Outcome, errs []error) {
	c.DrainEach(ctx, limit, func(out *Outcome, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		outs = append(outs, out)
	})
	return outs, errs
}

// drainSink serialises a drain's result stream across pipeline goroutines.
type drainSink struct {
	mu   sync.Mutex
	emit func(*Outcome, error)
}

func (s *drainSink) addOut(out *Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(out, nil)
}

func (s *drainSink) addErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(nil, err)
}

// integrationJob is one message handed from a worker to an integration
// lane: its lease, its partially filled outcome, and any templates still
// to integrate (empty for request messages, whose acknowledgement simply
// joins the lane's group commit).
type integrationJob struct {
	msg  mq.Message
	out  *Outcome
	tpls []extract.Template
}

// frontHalf runs the extraction/answer half of one leased message's
// workflow under its pipeline_message span, then picks the integration
// lane that will integrate and acknowledge it. Messages with no
// templates (requests) only need an acknowledgement; they spread across
// lanes by message ID so no single lane becomes the ack bottleneck. A
// failed message is nacked for redelivery and reported to sink, and ok
// is false.
func (c *Coordinator) frontHalf(ctx context.Context, m mq.Message, sink *drainSink) (job integrationJob, lane int, ok bool) {
	c.signal(Signal{MessageID: m.ID, From: "MC", To: "IE", Step: StepClassify})
	if m.Trace != "" {
		ctx = obs.WithTrace(ctx, m.Trace)
	}
	// The span covers only the front half (extract/answer); integration
	// happens later in a lane batch and is traced as its own
	// integrate_batch timeline.
	ctx, sp := obs.StartSpan(ctx, spanPipelineMessage)
	sp.SetAttr("msg_id", strconv.FormatInt(m.ID, 10))
	out, tpls, err := c.prepare(ctx, m)
	sp.SetError(err)
	sp.End()
	if err != nil {
		_ = c.queue.Nack(m.ID)
		messagesErr.Inc()
		sink.addErr(fmt.Errorf("coordinator: message %d: %w", m.ID, err))
		return integrationJob{}, 0, false
	}
	if len(tpls) > 0 {
		lane = c.di.Route(tpls)
	} else if n := c.di.Lanes(); n > 1 && m.ID > 0 {
		lane = int(m.ID % int64(n))
	}
	return integrationJob{msg: m, out: out, tpls: tpls}, lane, true
}

// runIntegrator is one lane's single-goroutine batching stage: it
// greedily collects the lane's pending jobs up to the batch cap,
// integrates each batch under one acquisition of the lane's store lock,
// and acknowledges the batch's messages with one group-committed ack.
func (c *Coordinator) runIntegrator(ctx context.Context, lane int, integ <-chan integrationJob, sink *drainSink, settled func(n int)) {
	for {
		job, ok := <-integ
		if !ok {
			return
		}
		batch := []integrationJob{job}
	collect:
		for len(batch) < c.batchSize {
			select {
			case next, ok := <-integ:
				if !ok {
					break collect
				}
				batch = append(batch, next)
			default:
				break collect
			}
		}
		c.flushBatch(ctx, lane, batch, sink)
		settled(len(batch))
	}
}

func (c *Coordinator) flushBatch(ctx context.Context, lane int, batch []integrationJob, sink *drainSink) {
	_, sp := obs.StartSpan(ctx, spanIntegrateBatch)
	sp.SetInt("lane", lane)
	sp.SetInt("messages", len(batch))
	defer sp.End()
	mBatchMessages.With(strconv.Itoa(lane)).Observe(float64(len(batch)))
	groups := make([][]extract.Template, len(batch))
	for i, job := range batch {
		groups[i] = job.tpls
	}
	intStart := time.Now()
	results := c.di.IntegrateGroups(lane, groups)
	stageIntegrate.Since(intStart)

	ackIDs := make([]int64, 0, len(batch))
	completed := make([]integrationJob, 0, len(batch))
	for i, job := range batch {
		if err := foldGroup(job.out, results[i]); err != nil {
			_ = c.queue.Nack(job.msg.ID)
			messagesErr.Inc()
			sink.addErr(fmt.Errorf("coordinator: message %d: %w", job.msg.ID, err))
			continue
		}
		ackIDs = append(ackIDs, job.msg.ID)
		completed = append(completed, job)
	}
	if len(ackIDs) > 0 {
		acked, err := c.queue.AckBatch(ackIDs)
		if err != nil {
			sink.addErr(err)
		}
		// Record outcomes only for messages the group commit really
		// acknowledged; the rest go back for redelivery (a WAL failure
		// acks nothing) or expired mid-flight and will be redelivered
		// anyway — nacking the leftovers instead of stranding their
		// leases keeps the dispatcher from waiting forever.
		ackedSet := make(map[int64]bool, len(acked))
		for _, id := range acked {
			ackedSet[id] = true
		}
		for i, id := range ackIDs {
			if ackedSet[id] {
				c.finish(completed[i].msg, completed[i].out)
				sink.addOut(completed[i].out)
			} else {
				_ = c.queue.Nack(id)
			}
		}
	}
}
