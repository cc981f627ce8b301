package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tweetgen"
)

// ask-miss: a system with the answer cache on is preloaded with reports
// through Ingest, the sequential path, so its store is the same on every
// run. Then runtime.NumCPU() closed-loop clients ask distinct questions,
// each once, so every cache lookup misses.

// askCache is the answer cache's capacity in ask-miss; it is on so the
// measured path includes the lookup and the fill.
const askCache = 4096

// The correctness gate: a fixed preload and question set, answered
// sequentially, hash to the digest in golden.json on a correct tree.
const (
	goldenSeed      = 20110411
	goldenReports   = 1500
	goldenQuestions = 300
)

//go:embed golden.json
var goldenJSON []byte

type askRound struct {
	setup    time.Duration
	cost     cpuCost // set-up, and the closed loop of asks
	rate     float64
	latMS    []float64
	ingestMS []float64
	heapMB   float64
	typeOK   int
	typed    int
	recStart int
	recEnd   int
	digest   string
	kept     int
	rt       runtimeDelta
}

func runAskMiss(ctx context.Context, p params) (*report, error) {
	sz := p.sz
	preload, err := reports(p.seed, sz.askPreload)
	if err != nil {
		return nil, err
	}
	qs, err := distinctQuestions(p.seed, sz.askGenerated, sz.askWarmup+sz.askPool)
	if err != nil {
		return nil, err
	}
	warmQs, pool := qs[:sz.askWarmup], qs[sz.askWarmup:]

	rep := newReport()
	var rounds []askRound
	var tr *tracer
	if p.traced {
		tr = newTracer()
	}
	err = runRounds(p, func(i int, traced bool) error {
		var rtr *tracer
		if traced {
			rtr = tr
		}
		r, err := askOnce(ctx, p, rtr, preload, warmQs, pool, rep)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var setup, rates, heaps []float64
	var lats, ingests [][]float64
	var costs []cpuCost
	typeOK, typed := 0, 0
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		costs = append(costs, r.cost)
		rates = append(rates, r.rate)
		heaps = append(heaps, r.heapMB)
		lats = append(lats, r.latMS)
		ingests = append(ingests, r.ingestMS)
		typeOK += r.typeOK
		typed += r.typed
		rep.check(r.digest == rounds[0].digest, "answers differ between rounds: %s vs %s", r.digest, rounds[0].digest)
	}
	p50, p99 := tail(rep, "ask latency", lats)
	ip50 := median(p50s(ingests))
	last := rounds[len(rounds)-1]
	costMetrics(rep, costs)
	rep.metrics["heap_live_mb"] = median(heaps)
	rep.metrics["type_accuracy"] = ratio(float64(typeOK), float64(typed))
	rep.detail["setup_wall_s"] = median(setup)
	rep.detail["asks_per_s"] = median(rates)
	rep.detail["ask_p50_ms"] = p50
	rep.detail["ask_p99_ms"] = p99
	rep.detail["ingest_p50_ms"] = ip50
	rep.detail["type_accuracy"] = rep.metrics["type_accuracy"]
	rep.detail["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.detail["records_start"] = float64(last.recStart)
	rep.detail["records_end"] = float64(last.recEnd)
	rep.detail["rounds"] = float64(len(rounds))
	rep.digest = rounds[0].digest
	fmt.Printf("answers digest (seed %d): %s\n", p.seed, rep.digest)

	if !p.traced {
		want, err := goldenDigest()
		if err != nil {
			return nil, err
		}
		got, err := askDigest(ctx, goldenSeed, goldenReports, goldenQuestions)
		if err != nil {
			return nil, err
		}
		rep.check(got == want, "golden answers digest %s, want %s (answers changed)", got, want)
		fmt.Printf("golden digest: %s (want %s)\n", got, want)
		return rep, nil
	}

	traced := rounds[1:]
	spans := tr.snapshot()
	set := indexSpans(spans)
	layer := zeroLayer()
	layer["extract.us_per_msg"] = set.meanUS(spanExtract)
	layer["classify.us_per_msg"] = set.meanUS(spanClassify)
	layer["ner.us_per_msg"] = set.meanUS(spanNER)
	layer["disambig.us_per_call"] = set.meanUS(spanDisambig)
	layer["gazetteer.fuzzy_us_per_call"] = set.meanUS(spanFuzzy)
	layer["qa.us_per_ask"] = set.meanUS(spanQA)
	layer["qa.self_us_per_ask"] = set.meanSelfUS(spanQA, spanStoreQuery)
	layer["shard.query_us_per_ask"] = set.meanUS(spanStoreQuery)
	_, _, rows := set.total(spanStoreQuery)
	kept := 0
	for _, r := range traced {
		kept += r.kept
	}
	layer["shard.rows_per_answer"] = ratio(float64(rows), float64(kept))
	layer["runtime.alloc_kb_per_op"] = rounds[0].rt.allocKBPerOp
	layer["runtime.gc_cpu_share"] = rounds[0].rt.gcCPUShare
	layer["trace.overhead_ratio"] = overheadRatio(costs)
	rep.metrics = layer
	rep.spans = spans
	return rep, nil
}

func askOnce(ctx context.Context, p params, tr *tracer, preload []tweetgen.Message, warmQs, pool []string, rep *report) (askRound, error) {
	var r askRound
	cpu0 := processCPU()
	start := time.Now()
	pipe, cp, err := openPipe(sysConfig{cache: askCache}, tr)
	if err != nil {
		return r, err
	}
	for _, m := range preload {
		st := time.Now()
		out, err := pipe.Ingest(ctx, m.Text, m.Source)
		r.ingestMS = append(r.ingestMS, ms(time.Since(st)))
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "ingest: %v", err)
			continue
		}
		if out.typ == m.Truth.Type {
			r.typeOK++
		}
		r.typed++
	}
	for _, q := range warmQs {
		rep.attempted++
		if _, err := pipe.Ask(ctx, q, "asker"); err != nil && !errors.Is(err, errNotAQuestion) {
			rep.failed++
			rep.check(false, "warm-up ask: %v", err)
		}
	}
	r.setup = time.Since(start)
	r.cost.setup = processCPU() - cpu0

	rt0 := readRuntime()
	before := pipe.State()
	r.recStart = before.records
	answers := make([]answer, len(pool))
	errs := make([]error, len(pool))
	lat := make([]float64, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 = processCPU()
	loopStart := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					return
				}
				actx, sp := tr.start(ctx, spanAsk)
				st := time.Now()
				answers[i], errs[i] = pipe.Ask(actx, pool[i], "asker")
				lat[i] = ms(time.Since(st))
				sp.end(1)
			}
		}()
	}
	wg.Wait()
	r.rate = float64(len(pool)) / time.Since(loopStart).Seconds()
	r.cost.phase, r.cost.ops = processCPU()-cpu0, len(pool)
	r.latMS = lat
	r.rt = since(rt0, len(pool))
	after := pipe.State()
	r.recEnd = after.records
	r.heapMB = heapLiveMB()

	h := sha256.New()
	for i, q := range pool {
		rep.attempted++
		switch {
		case errors.Is(errs[i], errNotAQuestion):
		case errs[i] != nil:
			rep.failed++
			rep.check(false, "ask %q: %v", q, errs[i])
		default:
			r.typeOK++
			r.kept += len(answers[i].results)
		}
		r.typed++
		hashAnswer(h, q, answers[i], errs[i])
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	p50, _ := percentile(r.latMS, 50)
	p99, _ := percentile(r.latMS, 99)
	fmt.Printf("round: setup %.3fs (cpu %.3fs) %.0f asks/s cpu %.1fus/ask ask p50 %.3fms p99 %.3fms records %d\n",
		r.setup.Seconds(), r.cost.setup.Seconds(), r.rate, r.cost.usPerOp(), p50, p99, r.recEnd)
	rep.check(after.hits == 0, "ask-miss served %d cache hits; every question must be distinct", after.hits)
	rep.check(after.records == before.records, "store changed during the asks: %d -> %d records", before.records, after.records)

	if cp != nil {
		if err := probeExtraction(ctx, tr, cp.sys, pool[:p.sz.askProbeQs]); err != nil {
			return r, closeAfter(pipe, err)
		}
		kept, err := probeQA(ctx, tr, cp.sys, pool[:p.sz.askProbeQs])
		if err != nil {
			return r, closeAfter(pipe, err)
		}
		r.kept += kept
	}
	return r, pipe.Close()
}

// hashAnswer folds one question and its answer into h: the answer text,
// the formulated query, and each result's ID and score.
func hashAnswer(h hash.Hash, q string, a answer, err error) {
	fmt.Fprintf(h, "Q %s\n", q)
	switch {
	case errors.Is(err, errNotAQuestion):
		fmt.Fprintln(h, "refused")
	case err != nil:
		fmt.Fprintln(h, "error")
	default:
		fmt.Fprintf(h, "T %s\nS %s\n", a.text, a.query)
		for _, res := range a.results {
			fmt.Fprintf(h, "R %d %s\n", res.id, strconv.FormatFloat(res.score, 'g', -1, 64))
		}
	}
}

// askDigest preloads a fresh facade system with n reports from seed
// through Ingest, asks q distinct questions in order, and hashes the
// answers.
func askDigest(ctx context.Context, seed int64, n, q int) (string, error) {
	preload, err := reports(seed, n)
	if err != nil {
		return "", err
	}
	qs, err := distinctQuestions(seed, 20*q, q)
	if err != nil {
		return "", err
	}
	pipe, _, err := openPipe(sysConfig{cache: askCache}, nil)
	if err != nil {
		return "", err
	}
	for _, m := range preload {
		if _, err := pipe.Ingest(ctx, m.Text, m.Source); err != nil {
			return "", closeAfter(pipe, fmt.Errorf("digest preload: %w", err))
		}
	}
	h := sha256.New()
	for _, question := range qs {
		a, err := pipe.Ask(ctx, question, "asker")
		if err != nil && !errors.Is(err, errNotAQuestion) {
			return "", closeAfter(pipe, fmt.Errorf("digest ask: %w", err))
		}
		hashAnswer(h, question, a, err)
	}
	return hex.EncodeToString(h.Sum(nil)), pipe.Close()
}

// goldenDigest is the digest a correct tree's answers hash to.
func goldenDigest() (string, error) {
	var g struct {
		AskMissDigest string `json:"ask_miss_digest"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return g.AskMissDigest, nil
}
