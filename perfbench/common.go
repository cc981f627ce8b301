package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/readpath"
	"repro/internal/tweetgen"
)

// Span names the benchmark records.
const (
	spanSubmit        = "submit"
	spanDrain         = "drain"
	spanCheckpoint    = "checkpoint"
	spanAsk           = "ask"
	spanIntegrate     = "integrate"
	spanStoreQuery    = "shard.query"
	spanClassify      = "classify"
	spanExtract       = "extract"
	spanNER           = "ner"
	spanDisambig      = "disambig"
	spanFuzzy         = "gazetteer.fuzzy"
	spanQA            = "qa.answer"
	spanEnqueue       = "mq.enqueue"
	spanAckBatch      = "mq.ack_batch"
	spanHTTPAsk       = "server.ask"
	spanHTTPSubmit    = "server.submit"
	spanHTTPFeedback  = "server.feedback"
	spanSysAsk        = "system.ask"
	spanSysSubmit     = "system.submit"
	spanSysFeedback   = "system.feedback"
	spanSysFlush      = "system.flush_feedback"
	spanSysCheckpoint = "system.checkpoint"
)

// runRounds calls round until at least minRounds rounds have run and the
// budget is spent. Each round builds a fresh system, so rounds repeat the
// same measurement. In a traced run round 0 is the untraced baseline.
func runRounds(p params, round func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; i < p.sz.minRounds || time.Since(start) < p.budget; i++ {
		if err := round(i, p.traced && i > 0); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}

// roundDir makes a fresh scratch directory for one round.
func roundDir(p params, i int) (string, error) {
	dir := filepath.Join(p.dir, fmt.Sprintf("round%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("round directory: %w", err)
	}
	return dir, nil
}

// stream generates n labelled messages from the run's seed, with the
// given share of requests.
func stream(seed int64, kind int64, n int, requests float64) ([]tweetgen.Message, error) {
	g, err := tweetgen.New(tweetgen.Config{Seed: seed*1000 + kind, Noise: noise, RequestRatio: requests})
	if err != nil {
		return nil, err
	}
	return g.Generate(n), nil
}

// reports generates n informative messages: a mixed stream with the
// requests dropped.
func reports(seed int64, n int) ([]tweetgen.Message, error) {
	msgs, err := stream(seed, seedStream, 2*n, requestRatio)
	if err != nil {
		return nil, err
	}
	out := make([]tweetgen.Message, 0, n)
	for _, m := range msgs {
		if m.Truth.Type == "informative" {
			out = append(out, m)
			if len(out) == n {
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("only %d reports in %d generated messages, need %d", len(out), len(msgs), n)
}

// distinctQuestions generates requests from the seed and keeps the first
// n whose normalized text (the answer cache's key) is new, so no two of
// them can share a cache entry.
func distinctQuestions(seed int64, generated, n int) ([]string, error) {
	msgs, err := stream(seed, seedQuestions, generated, 1)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for _, m := range msgs {
		key := readpath.NormalizeQuestion(m.Text)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, m.Text)
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("only %d distinct questions in %d generated, need %d", len(out), generated, n)
}

// runtimeSample is the process's allocation and CPU accounting at one
// instant.
type runtimeSample struct {
	allocBytes     uint64
	gcCPU, busyCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// runtimeDelta is what a measured phase cost the Go runtime.
type runtimeDelta struct {
	allocKBPerOp float64
	gcCPUShare   float64
}

func since(before runtimeSample, ops int) runtimeDelta {
	after := readRuntime()
	return runtimeDelta{
		allocKBPerOp: ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(ops)),
		gcCPUShare:   ratio(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU),
	}
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// openLoop sends n operations on a fixed schedule — operation i is due at
// start + i/rate — to workers goroutines, whatever the system's speed, so
// a stall makes later operations late instead of fewer. do runs one
// operation given its index and due time. openLoop returns how late the
// generator handed each operation over, once every operation is done.
func openLoop(ctx context.Context, n int, rate float64, workers int, do func(i int, due time.Time)) []time.Duration {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j.i, j.due)
			}
		}()
	}
	late := make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{i: i, due: due}
		late = append(late, time.Since(due))
	}
	close(jobs)
	wg.Wait()
	return late
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// tail reports the p50 and p99 of each round's samples and returns the
// medians across rounds, so one disturbed round does not move the
// result. A round with too few samples for a p99 fails a check.
func tail(rep *report, what string, rounds [][]float64) (p50, p99 float64) {
	var p50s, p99s []float64
	for i, xs := range rounds {
		v50, ok50 := percentile(xs, 50)
		v99, ok99 := percentile(xs, 99)
		rep.check(ok50 && ok99, "%s, round %d: %d samples are too few for a p99", what, i, len(xs))
		p50s, p99s = append(p50s, v50), append(p99s, v99)
	}
	return median(p50s), median(p99s)
}

// p50s returns the median of each round's samples.
func p50s(rounds [][]float64) []float64 {
	out := make([]float64, len(rounds))
	for i, xs := range rounds {
		out[i], _ = percentile(xs, 50)
	}
	return out
}
