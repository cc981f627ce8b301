package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchkit"
	"repro/internal/ner"
	"repro/internal/obs"
	"repro/internal/tweetgen"
)

// ingest: a system with a data directory, 4 shards and workers =
// GOMAXPROCS takes a mixed tweet stream. Capacity phase: submit a
// fixed batch, then drain it. Freshness phase: one generator submits at a
// fixed rate while a consumer re-enters Drain whenever it is signalled
// that messages are pending. The round ends with a few checkpoints.

// tally matches drained outcomes to the messages submitted.
type tally struct {
	mu      sync.Mutex
	truth   map[int64]tweetgen.Message // by queue ID
	due     map[int64]time.Time        // when the message was due to be submitted
	done    map[int64]finish
	extra   int // outcomes for already finished IDs
	errs    int
	lastErr error
}

// finish is when a message's outcome left Drain, and its type.
type finish struct {
	at  time.Time
	typ string
}

func newTally() *tally {
	return &tally{truth: map[int64]tweetgen.Message{}, due: map[int64]time.Time{}, done: map[int64]finish{}}
}

func (t *tally) submitted(id int64, m tweetgen.Message, due time.Time) {
	t.mu.Lock()
	t.truth[id] = m
	t.due[id] = due
	t.mu.Unlock()
}

func (t *tally) emit(o outcome, err error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.errs++
		t.lastErr = err
		return
	}
	if _, dup := t.done[o.id]; dup {
		t.extra++
		return
	}
	t.done[o.id] = finish{at: now, typ: o.typ}
}

func (t *tally) finished() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done) + t.errs
}

// verify checks that each of ids yielded exactly one outcome and no
// errors, and returns how many outcomes carried the true message type
// and the transit of each message from its due time, in milliseconds.
func (t *tally) verify(rep *report, phase string, ids []int64) (typeOK int, transitMS []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	missing := 0
	for _, id := range ids {
		f, ok := t.done[id]
		if !ok {
			missing++
			continue
		}
		if t.truth[id].Truth.Type == f.typ {
			typeOK++
		}
		transitMS = append(transitMS, ms(f.at.Sub(t.due[id])))
	}
	rep.check(missing == 0 && t.errs == 0 && t.extra == 0,
		"%s: %d of %d messages without an outcome, %d errors (last: %v), %d extra outcomes",
		phase, missing, len(ids), t.errs, t.lastErr, t.extra)
	rep.failed += t.errs
	return typeOK, transitMS
}

type ingestRound struct {
	setup      time.Duration
	cost       cpuCost // set-up, and the capacity phase from first submit to drained
	drainRate  float64
	submitMS   []float64
	burstMS    []float64 // capacity phase: submit to outcome
	transitMS  []float64 // freshness phase: due time to outcome
	lateMS     []float64
	ckptMS     []float64
	ckptBytes  int64
	heapMB     float64
	typeOK     int
	typed      int
	recStart   int
	recEnd     int
	backlogMax int
	rt         runtimeDelta
	busyShare  float64
	inserted   int64
	merged     int64
	nerF1      float64
}

func runIngest(ctx context.Context, p params) (*report, error) {
	sz := p.sz
	nFresh := int(sz.freshRate * sz.freshFor.Seconds())
	msgs, err := stream(p.seed, seedStream, sz.ingestWarmup+sz.ingestBatch+nFresh, requestRatio)
	if err != nil {
		return nil, err
	}
	warm := msgs[:sz.ingestWarmup]
	batch := msgs[sz.ingestWarmup : sz.ingestWarmup+sz.ingestBatch]
	fresh := msgs[sz.ingestWarmup+sz.ingestBatch:]

	rep := newReport()
	var rounds []ingestRound
	var tr *tracer
	if p.traced {
		tr = newTracer()
	}
	err = runRounds(p, func(i int, traced bool) error {
		var rtr *tracer
		if traced {
			rtr = tr
		}
		r, err := ingestOnce(ctx, p, i, rtr, warm, batch, fresh, rep)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var setup, rates, heaps, ckpts []float64
	var submits, bursts, transits [][]float64
	var costs []cpuCost
	typeOK, typed := 0, 0
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		costs = append(costs, r.cost)
		rates = append(rates, r.drainRate)
		heaps = append(heaps, r.heapMB)
		ckpts = append(ckpts, median(r.ckptMS))
		submits = append(submits, r.submitMS)
		bursts = append(bursts, r.burstMS)
		transits = append(transits, r.transitMS)
		typeOK += r.typeOK
		typed += r.typed
	}
	tp50, tp99 := tail(rep, "transit", transits)
	sp50 := median(p50s(submits))
	last := rounds[len(rounds)-1]
	costMetrics(rep, costs)
	rep.metrics["heap_live_mb"] = median(heaps)
	rep.metrics["type_accuracy"] = ratio(float64(typeOK), float64(typed))
	rep.detail["setup_wall_s"] = median(setup)
	rep.detail["drain_msgs_per_s"] = median(rates)
	rep.detail["burst_transit_p50_ms"] = median(p50s(bursts))
	rep.detail["transit_p50_ms"] = tp50
	rep.detail["transit_p99_ms"] = tp99
	rep.detail["checkpoint_ms"] = median(ckpts)
	rep.detail["submit_p50_ms"] = sp50
	rep.detail["type_accuracy"] = rep.metrics["type_accuracy"]
	rep.detail["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.detail["records_start"] = float64(last.recStart)
	rep.detail["records_end"] = float64(last.recEnd)
	rep.detail["rounds"] = float64(len(rounds))
	if !p.traced {
		return rep, nil
	}

	// Per-layer figures: the untraced round 0 gives the runtime and load
	// generator figures, the traced rounds the layer timings.
	traced := rounds[1:]
	spans := tr.snapshot()
	set := indexSpans(spans)
	layer := zeroLayer()
	layer["extract.us_per_msg"] = set.meanUS(spanExtract)
	layer["classify.us_per_msg"] = set.meanUS(spanClassify)
	layer["ner.us_per_msg"] = set.meanUS(spanNER)
	layer["disambig.us_per_call"] = set.meanUS(spanDisambig)
	layer["gazetteer.fuzzy_us_per_call"] = set.meanUS(spanFuzzy)
	layer["integrate.us_per_msg"] = set.perItemUS(spanIntegrate)
	_, calls, groups := set.total(spanIntegrate)
	layer["integrate.msgs_per_batch"] = ratio(float64(groups), float64(calls))
	var ins, mer int64
	var busy, backlog []float64
	for _, r := range traced {
		ins += r.inserted
		mer += r.merged
		busy = append(busy, r.busyShare)
		backlog = append(backlog, float64(r.backlogMax))
	}
	layer["integrate.merge_ratio"] = ratio(float64(mer), float64(ins+mer))
	layer["coordinator.busy_share"] = median(busy)
	layer["mq.backlog_max"] = median(backlog)
	subP50, _ := percentile(set.durationsMS(spanEnqueue), 50)
	layer["mq.submit_p50_us"] = subP50 * 1000
	layer["mq.ack_batch_us"] = set.meanUS(spanAckBatch)
	var bpr []float64
	for _, r := range traced {
		bpr = append(bpr, ratio(float64(r.ckptBytes), float64(r.recEnd)))
	}
	layer["persist.bytes_per_record"] = median(bpr)
	layer["runtime.alloc_kb_per_op"] = rounds[0].rt.allocKBPerOp
	layer["runtime.gc_cpu_share"] = rounds[0].rt.gcCPUShare
	lateP99, _ := percentile(rounds[0].lateMS, 99)
	layer["loadgen.late_p99_ms"] = lateP99
	layer["trace.overhead_ratio"] = overheadRatio(costs)
	layer["ner.f1"] = traced[len(traced)-1].nerF1
	acc, err := factAccuracy(p.seed)
	if err != nil {
		return nil, err
	}
	layer["integrate.fact_accuracy"] = acc
	rep.metrics = layer
	rep.spans = spans
	return rep, nil
}

func ingestOnce(ctx context.Context, p params, i int, tr *tracer, warm, batch, fresh []tweetgen.Message, rep *report) (ingestRound, error) {
	var r ingestRound
	dir, err := roundDir(p, i)
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	cpu0 := processCPU()
	start := time.Now()
	pipe, cp, err := openPipe(sysConfig{dataDir: dir}, tr)
	if err != nil {
		return r, err
	}
	t := newTally()
	warmIDs, err := submitAll(ctx, pipe, tr, warm, t, rep, nil)
	if err != nil {
		return r, closeAfter(pipe, err)
	}
	pipe.Drain(ctx, t.emit)
	t.verify(rep, "warm-up", warmIDs)
	r.setup = time.Since(start)
	r.cost.setup = processCPU() - cpu0

	rt0 := readRuntime()
	r.recStart = pipe.State().records
	// Capacity phase.
	t = newTally()
	cpu0 = processCPU()
	batchIDs, err := submitAll(ctx, pipe, tr, batch, t, rep, &r.submitMS)
	if err != nil {
		return r, closeAfter(pipe, err)
	}
	extractBefore := stageSeconds("extract")
	var drainFrom time.Duration
	if tr != nil {
		drainFrom = time.Since(tr.epoch)
	}
	drainStart := time.Now()
	dctx, sp := tr.start(ctx, spanDrain)
	pipe.Drain(dctx, t.emit)
	sp.end(len(batch))
	wall := time.Since(drainStart)
	r.cost.phase, r.cost.ops = processCPU()-cpu0, len(batch)
	r.drainRate = float64(len(batch)) / wall.Seconds()
	r.typeOK, r.burstMS = t.verify(rep, "capacity", batchIDs)
	r.typed = len(batch)
	if tr != nil {
		integ := integrateBusy(tr, drainFrom)
		r.busyShare = (stageSeconds("extract") - extractBefore + integ.Seconds()) /
			(float64(runtime.GOMAXPROCS(0)) * wall.Seconds())
	}

	// Freshness phase.
	t = newTally()
	freshIDs, lateMS, backlog := freshness(ctx, pipe, tr, fresh, t, rep, p.sz.freshRate)
	r.lateMS, r.backlogMax = lateMS, backlog
	freshOK, transitMS := t.verify(rep, "freshness", freshIDs)
	r.transitMS = transitMS
	r.typeOK += freshOK
	r.typed += len(fresh)

	// Checkpoints.
	for k := 0; k < p.sz.ingestCkpts; k++ {
		cctx, sp := tr.start(ctx, spanCheckpoint)
		st := time.Now()
		n, err := pipe.Checkpoint(cctx)
		sp.end(1)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "checkpoint: %v", err)
			continue
		}
		r.ckptMS = append(r.ckptMS, ms(time.Since(st)))
		r.ckptBytes = n
	}
	st := pipe.State()
	r.recEnd = st.records
	total := len(warm) + len(batch) + len(fresh)
	rep.check(st.acked == total && st.dead == 0 && st.pending == 0,
		"queue: %d acked of %d submitted, %d dead-lettered, %d pending", st.acked, total, st.dead, st.pending)
	rep.failed += st.dead
	r.heapMB = heapLiveMB()
	r.rt = since(rt0, len(batch)+len(fresh))
	tp50, _ := percentile(r.transitMS, 50)
	tp99, _ := percentile(r.transitMS, 99)
	fmt.Printf("round %d: setup %.3fs (cpu %.3fs) drain %.0f msgs/s cpu %.1fus/msg transit p50 %.3fms p99 %.3fms records %d->%d\n",
		i, r.setup.Seconds(), r.cost.setup.Seconds(), r.drainRate, r.cost.usPerOp(), tp50, tp99, r.recStart, r.recEnd)

	if cp != nil {
		r.inserted, r.merged = cp.integ.inserted.Load(), cp.integ.merged.Load()
		if err := probeExtraction(ctx, tr, cp.sys, texts(batch[:p.sz.ingestProbeMsgs])); err != nil {
			return r, closeAfter(pipe, err)
		}
		if err := probeWAL(ctx, tr, dir, batch, p.sz.ackProbeBatches); err != nil {
			return r, closeAfter(pipe, err)
		}
		x := ner.NewExtractor(cp.sys.Gaz, cp.sys.Ont)
		r.nerF1 = tweetgen.EvaluateNER(batch, x.ExtractInformal).F1()
	}
	return r, pipe.Close()
}

// closeAfter closes pipe after err ended a round early, keeping err.
func closeAfter(pipe pipeline, err error) error {
	_ = pipe.Close() // err is the failure to report
	return err
}

// submitAll submits msgs back to back, timing each call into latMS when it
// is not nil, and returns their queue IDs.
func submitAll(ctx context.Context, pipe pipeline, tr *tracer, msgs []tweetgen.Message, t *tally, rep *report, latMS *[]float64) ([]int64, error) {
	ids := make([]int64, 0, len(msgs))
	for _, m := range msgs {
		sctx, sp := tr.start(ctx, spanSubmit)
		start := time.Now()
		id, err := pipe.Submit(sctx, m.Text, m.Source)
		d := time.Since(start)
		sp.end(1)
		rep.attempted++
		if err != nil {
			rep.failed++
			return nil, fmt.Errorf("submit: %w", err)
		}
		if latMS != nil {
			*latMS = append(*latMS, ms(d))
		}
		t.submitted(id, m, start)
		ids = append(ids, id)
	}
	return ids, nil
}

// freshness runs the open loop: one generator submits msgs at rate while
// a consumer re-enters Drain whenever the generator has signalled that
// messages are pending. It returns the queue IDs and how late the
// generator ran; a traced run also samples the largest queue backlog.
func freshness(ctx context.Context, pipe pipeline, tr *tracer, msgs []tweetgen.Message, t *tally, rep *report, rate float64) (ids []int64, lateMS []float64, backlog int) {
	kick := make(chan struct{}, 1)
	genDone := make(chan struct{})
	consDone := make(chan struct{})
	go func() {
		defer close(consDone)
		stopping := false
		for {
			if !stopping {
				select {
				case <-kick:
				case <-genDone:
					stopping = true
				}
			}
			before := t.finished()
			dctx, sp := tr.start(ctx, spanDrain)
			pipe.Drain(dctx, t.emit)
			got := t.finished() - before
			sp.end(got)
			if stopping && (t.finished() >= len(msgs) || got == 0) {
				return
			}
		}
	}()
	sampleDone := make(chan struct{})
	if tr != nil {
		// The backlog sampler runs beside the consumer, not in its loop,
		// so sampling does not delay a drain pass.
		go func() {
			defer close(sampleDone)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-consDone:
					return
				case <-tick.C:
					if n := pipe.State().pending; n > backlog {
						backlog = n
					}
				}
			}
		}()
	} else {
		close(sampleDone)
	}
	var mu sync.Mutex
	var submitErr error
	late := openLoop(ctx, len(msgs), rate, 1, func(i int, due time.Time) {
		sctx, sp := tr.start(ctx, spanSubmit)
		id, err := pipe.Submit(sctx, msgs[i].Text, msgs[i].Source)
		sp.end(1)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			submitErr = err
			return
		}
		t.submitted(id, msgs[i], due)
		ids = append(ids, id)
		select {
		case kick <- struct{}{}:
		default:
		}
	})
	close(genDone)
	<-consDone
	<-sampleDone
	rep.attempted += len(msgs)
	if failed := len(msgs) - len(ids); failed > 0 {
		rep.failed += failed
		rep.check(false, "freshness: %d submits failed (last: %v)", failed, submitErr)
	}
	return ids, durationsMS(late), backlog
}

// stageSeconds is the busy time the coordinator's own stage histogram has
// accumulated for stage, in seconds.
func stageSeconds(stage string) float64 {
	return obs.Default().FindHistogram("neogeo_pipeline_stage_seconds", stage).Summary().Sum
}

// integrateBusy sums the integration spans that started since from.
func integrateBusy(tr *tracer, from time.Duration) time.Duration {
	var d time.Duration
	for _, s := range tr.snapshot() {
		if s.Name == spanIntegrate && s.Start >= from {
			d += s.dur()
		}
	}
	return d
}

// factAccuracy is the final probabilistic fact accuracy of experiment E7
// (uncertainty-aware integration of a contradiction-laden stream).
func factAccuracy(seed int64) (float64, error) {
	var buf bytes.Buffer
	cfg := benchkit.E7Config{Hotels: 40, Messages: 1200, Step: 1200, LiarRate: 0.3, Seed: seed}
	if err := benchkit.E7(cfg, &buf); err != nil {
		return 0, fmt.Errorf("E7: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	cols := strings.Split(lines[len(lines)-1], "\t")
	if len(cols) < 2 {
		return 0, fmt.Errorf("E7: unexpected output %q", lines[len(lines)-1])
	}
	acc, err := strconv.ParseFloat(cols[1], 64)
	if err != nil {
		return 0, fmt.Errorf("E7: %w", err)
	}
	return acc, nil
}

// zeroLayer starts the per-layer metrics at 0: a layer the workload does
// not exercise reads 0.
func zeroLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}
