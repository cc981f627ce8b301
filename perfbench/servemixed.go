package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	neogeo "repro"
	"repro/internal/server"
	"repro/internal/tweetgen"
)

// serve-mixed: the daemon as deployed, minus the socket. A system with a
// data directory and the answer cache runs behind server.New(...).ServeHTTP, and the
// server's own Run loop drains, flushes feedback and checkpoints. An open
// loop at a fixed total rate, with at most runtime.NumCPU() requests in
// flight, sends Zipf-drawn asks over a pool that fits in the cache,
// report submits, and verdicts on the top result of a recent answer.

type opKind byte

const (
	opAsk opKind = iota
	opSubmit
	opVerdict
)

// How a scheduled operation ended.
const (
	opDone opEnd = iota
	opFailed
	opSkipped // a verdict before any answer had a result
	opRefused // an ask classified as a contribution
)

type opEnd byte

// op is one scheduled operation.
type op struct {
	kind    opKind
	q       int  // question index, for asks
	report  int  // report index, for submits
	confirm bool // confirm or reject, for verdicts
}

// serveOps draws the operation schedule from the seed.
func serveOps(seed int64, n, pool int) []op {
	rng := rand.New(rand.NewSource(seed*1000 + seedOps))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	ops := make([]op, n)
	reportsUsed := 0
	for i := range ops {
		u := rng.Float64()
		switch {
		case u < submitShare:
			ops[i] = op{kind: opSubmit, report: reportsUsed}
			reportsUsed++
		case u < submitShare+verdictShare:
			ops[i] = op{kind: opVerdict, confirm: rng.Intn(2) == 0}
		default:
			ops[i] = op{kind: opAsk, q: int(zipf.Uint64())}
		}
	}
	return ops
}

type serveRound struct {
	setup        time.Duration
	cost         cpuCost // set-up, and the open loop
	askMS        []float64
	submitMS     []float64
	feedbackMS   []float64
	lateMS       []float64
	opsPerS      float64
	heapMB       float64
	typeOK       int
	typed        int
	recStart     int
	recEnd       int
	hitRatio     float64
	invPerWrite  float64
	appliedRatio float64
	checkpoints  int
	rt           runtimeDelta
}

// serveInput is one round's inputs.
type serveInput struct {
	ops              []op
	preload, submits []tweetgen.Message
	pool             []string
}

// serveInputs generates a round's inputs from the run's seed and the
// round's index. Every round draws its own reports, pool and schedule,
// so a run's median spans as many draws as it has rounds: with one draw
// per run, the few questions at the head of the Zipf order set the cost
// of the whole run, and two seeds differed by 15%.
func serveInputs(seed int64, round int, sz sizes) (serveInput, error) {
	seed = seed*1000 + int64(round)
	in := serveInput{ops: serveOps(seed, int(sz.serveRate*sz.serveFor.Seconds()), sz.servePool)}
	nSubmits := 0
	for _, o := range in.ops {
		if o.kind == opSubmit {
			nSubmits++
		}
	}
	msgs, err := reports(seed, sz.servePreload+nSubmits)
	if err != nil {
		return in, err
	}
	in.preload, in.submits = msgs[:sz.servePreload], msgs[sz.servePreload:]
	in.pool, err = distinctQuestions(seed, 20*sz.servePool, sz.servePool)
	return in, err
}

func runServeMixed(ctx context.Context, p params) (*report, error) {
	rep := newReport()
	var rounds []serveRound
	var tr *tracer
	if p.traced {
		tr = newTracer()
	}
	err := runRounds(p, func(i int, traced bool) error {
		var rtr *tracer
		if traced {
			rtr = tr
		}
		in, err := serveInputs(p.seed, i, p.sz)
		if err != nil {
			return err
		}
		r, err := serveOnce(ctx, p, i, rtr, in, rep)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var setup, rates, heaps, hits, invs, applied []float64
	var asks, subs, fbs [][]float64
	var costs []cpuCost
	typeOK, typed, ckpts := 0, 0, 0
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		costs = append(costs, r.cost)
		rates = append(rates, r.opsPerS)
		heaps = append(heaps, r.heapMB)
		asks = append(asks, r.askMS)
		subs = append(subs, r.submitMS)
		fbs = append(fbs, r.feedbackMS)
		hits = append(hits, r.hitRatio)
		invs = append(invs, r.invPerWrite)
		applied = append(applied, r.appliedRatio)
		typeOK += r.typeOK
		typed += r.typed
		ckpts += r.checkpoints
	}
	rep.check(ckpts >= len(rounds), "server wrote %d checkpoints in %d rounds", ckpts, len(rounds))
	p50, p99 := tail(rep, "ask latency", asks)
	sub50 := median(p50s(subs))
	fb50 := median(p50s(fbs))
	last := rounds[len(rounds)-1]
	costMetrics(rep, costs)
	rep.metrics["heap_live_mb"] = median(heaps)
	rep.metrics["type_accuracy"] = ratio(float64(typeOK), float64(typed))
	rep.detail["setup_wall_s"] = median(setup)
	rep.detail["ask_p50_ms"] = p50
	rep.detail["ask_p99_ms"] = p99
	rep.detail["submit_p50_ms"] = sub50
	rep.detail["feedback_p50_ms"] = fb50
	rep.detail["ops_per_s"] = median(rates)
	rep.detail["hit_ratio"] = median(hits)
	rep.detail["checkpoints"] = float64(ckpts)
	rep.detail["type_accuracy"] = rep.metrics["type_accuracy"]
	rep.detail["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.detail["records_start"] = float64(last.recStart)
	rep.detail["records_end"] = float64(last.recEnd)
	rep.detail["rounds"] = float64(len(rounds))
	if !p.traced {
		return rep, nil
	}

	spans := tr.snapshot()
	set := indexSpans(spans)
	layer := zeroLayer()
	layer["readpath.hit_ratio"] = median(hits)
	layer["readpath.invalidations_per_write"] = median(invs)
	layer["feedback.applied_ratio"] = median(applied)
	subP50, _ := percentile(set.durationsMS(spanSysSubmit), 50)
	layer["mq.submit_p50_us"] = subP50 * 1000
	layer["feedback.submit_us"] = set.meanUS(spanSysFeedback)
	layer["feedback.flush_ms"] = set.meanUS(spanSysFlush) / 1000
	layer["persist.checkpoint_ms"] = median(set.durationsMS(spanSysCheckpoint))
	layer["server.self_us_per_ask"] = set.meanSelfUS(spanHTTPAsk, spanSysAsk)
	layer["server.self_us_per_submit"] = set.meanSelfUS(spanHTTPSubmit, spanSysSubmit)
	layer["runtime.alloc_kb_per_op"] = rounds[0].rt.allocKBPerOp
	layer["runtime.gc_cpu_share"] = rounds[0].rt.gcCPUShare
	lateP99, _ := percentile(rounds[0].lateMS, 99)
	layer["loadgen.late_p99_ms"] = lateP99
	layer["trace.overhead_ratio"] = overheadRatio(costs)
	rep.metrics = layer
	rep.spans = spans
	return rep, nil
}

func serveOnce(ctx context.Context, p params, i int, tr *tracer, in serveInput, rep *report) (serveRound, error) {
	var r serveRound
	ops, preload, submits, pool := in.ops, in.preload, in.submits, in.pool
	dir, err := roundDir(p, i)
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	cpu0 := processCPU()
	start := time.Now()
	sys, err := neogeo.New(sysConfig{dataDir: dir, cache: p.sz.serveCache, ckptEvery: p.sz.serveCkptTick}.options()...)
	if err != nil {
		return r, err
	}
	for _, m := range preload {
		rep.attempted++
		out, err := sys.Ingest(ctx, m.Text, m.Source)
		if err != nil {
			rep.failed++
			rep.check(false, "preload: %v", err)
			continue
		}
		if string(out.Type) == m.Truth.Type {
			r.typeOK++
		}
		r.typed++
	}
	// Warm the cache and the fuzzy-lookup memo with one pass over the pool.
	for _, q := range pool {
		if _, err := sys.Ask(ctx, q, "asker"); err != nil && !errors.Is(err, neogeo.ErrNotAQuestion) {
			return r, closeAfter(facadePipe{sys: sys}, fmt.Errorf("warm-up ask: %w", err))
		}
	}
	r.setup = time.Since(start)
	r.cost.setup = processCPU() - cpu0

	var target server.System = sys
	if tr != nil {
		target = tracedSystem{System: sys, tr: tr}
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := server.New(target, server.WithSlog(logger))
	runCtx, stopRun := context.WithCancel(ctx)
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		srv.Run(runCtx)
	}()

	rt0 := readRuntime()
	before := sys.Stats()
	r.recStart = sum(before.ShardRecords)
	lat := make([]float64, len(ops))
	ends := make([]opEnd, len(ops))
	var lastTop atomic.Int64
	cpu0 = processCPU()
	loopStart := time.Now()
	late := openLoop(ctx, len(ops), p.sz.serveRate, runtime.NumCPU(), func(i int, due time.Time) {
		o := ops[i]
		var name, path string
		var body any
		want := http.StatusAccepted
		switch o.kind {
		case opAsk:
			name, path, want = spanHTTPAsk, "/v1/ask", http.StatusOK
			body = map[string]string{"question": pool[o.q], "source": "asker"}
		case opSubmit:
			m := submits[o.report]
			name, path = spanHTTPSubmit, "/v1/messages"
			body = map[string]string{"text": m.Text, "source": m.Source}
		case opVerdict:
			id := lastTop.Load()
			if id == 0 {
				ends[i] = opSkipped
				return
			}
			verdict := neogeo.VerdictReject
			if o.confirm {
				verdict = neogeo.VerdictConfirm
			}
			name, path = spanHTTPFeedback, "/v1/feedback"
			body = map[string]any{"record_id": id, "verdict": verdict, "source": "rater"}
		}
		status, resp := call(ctx, tr, srv, name, path, body)
		lat[i] = ms(time.Since(due))
		switch {
		case status == want && o.kind == opAsk:
			if id, ok := topResult(resp); ok {
				lastTop.Store(id)
			}
		case status == want:
		case o.kind == opAsk && status == http.StatusUnprocessableEntity && errorCode(resp) == "not_a_question":
			ends[i] = opRefused
		default:
			ends[i] = opFailed
		}
	})
	wall := time.Since(loopStart)
	r.cost.phase = processCPU() - cpu0
	during := sys.Stats()
	stopRun()
	<-runDone

	// Settle: integrate what is still queued and apply buffered verdicts,
	// so the checks see the whole round's effects.
	for _, err := range sys.Drain(ctx, 0) {
		if err != nil {
			rep.failed++
			rep.check(false, "final drain: %v", err)
		}
	}
	if _, err := sys.FlushFeedback(ctx); err != nil {
		return r, closeAfter(facadePipe{sys: sys}, fmt.Errorf("final feedback flush: %w", err))
	}
	after := sys.Stats()

	submitted, failed, done := 0, 0, 0
	for i, o := range ops {
		if ends[i] == opSkipped {
			continue
		}
		rep.attempted++
		done++
		if ends[i] == opFailed {
			failed++
			continue
		}
		switch o.kind {
		case opAsk:
			r.askMS = append(r.askMS, lat[i])
		case opSubmit:
			submitted++
			r.submitMS = append(r.submitMS, lat[i])
		case opVerdict:
			r.feedbackMS = append(r.feedbackMS, lat[i])
		}
	}
	rep.failed += failed
	rep.check(failed == 0, "%d of %d requests got an unexpected status", failed, done)
	r.opsPerS = float64(done) / wall.Seconds()
	r.cost.ops = done
	r.lateMS = durationsMS(late)
	r.rt = since(rt0, done)
	r.recEnd = sum(after.ShardRecords)
	acked := after.Queue.Acked - before.Queue.Acked
	rep.check(acked == submitted && after.Queue.DeadLettered == 0 && after.Queue.Pending == 0,
		"queue: %d acked of %d submitted, %d dead-lettered, %d pending",
		acked, submitted, after.Queue.DeadLettered, after.Queue.Pending)
	rep.failed += after.Queue.DeadLettered
	fb := after.Feedback
	rep.check(fb.Accepted == fb.Applied+fb.DroppedStale && fb.Pending == 0,
		"feedback: %d accepted, %d applied, %d dropped, %d pending", fb.Accepted, fb.Applied, fb.DroppedStale, fb.Pending)
	hitsD := during.Cache.Hits - before.Cache.Hits
	r.hitRatio = ratio(float64(hitsD), float64(hitsD+during.Cache.Misses-before.Cache.Misses))
	writes := acked + int(fb.Applied-before.Feedback.Applied)
	r.invPerWrite = ratio(float64(during.Cache.Invalidations-before.Cache.Invalidations), float64(writes))
	r.appliedRatio = ratio(float64(fb.Applied), float64(fb.Accepted))
	r.checkpoints = after.Checkpoint.Count
	r.heapMB = heapLiveMB()
	p50, _ := percentile(r.askMS, 50)
	p99, _ := percentile(r.askMS, 99)
	fmt.Printf("round %d: setup %.3fs (cpu %.3fs) %.0f ops/s cpu %.1fus/op ask p50 %.3fms p99 %.3fms hit ratio %.3f records %d->%d\n",
		i, r.setup.Seconds(), r.cost.setup.Seconds(), r.opsPerS, r.cost.usPerOp(), p50, p99, r.hitRatio, r.recStart, r.recEnd)
	return r, sys.Close()
}

// call sends one JSON request through the server's handler and returns
// the status and body. The request carries the span around it, so the
// decorated system's spans nest under it.
func call(ctx context.Context, tr *tracer, srv *server.Server, name, path string, body any) (int, []byte) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil
	}
	hctx, sp := tr.start(ctx, name)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)).WithContext(hctx)
	req.Header.Set("Content-Type", "application/json")
	if id := sp.requestID(); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	sp.end(1)
	return rec.Code, rec.Body.Bytes()
}

// topResult reads the top result's record ID off an ask response.
func topResult(body []byte) (int64, bool) {
	var resp struct {
		Answer struct {
			Results []struct {
				ID int64 `json:"id"`
			} `json:"results"`
		} `json:"answer"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Answer.Results) == 0 {
		return 0, false
	}
	return resp.Answer.Results[0].ID, true
}

// errorCode reads the code off an error response.
func errorCode(body []byte) string {
	var resp struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return ""
	}
	return resp.Error.Code
}
