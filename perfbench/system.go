package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	neogeo "repro"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/extract"
	"repro/internal/mq"
	"repro/internal/ner"
	"repro/internal/tweetgen"
)

// sysConfig is one system's construction, rendered both as facade options
// and as the core configuration the facade would build, so the untraced
// and traced pipelines are configured alike. The message queue stays in
// memory: with a queue WAL every enqueue and acknowledgement waits for an
// fsync, and on the disks this benchmark was tuned on fsync latency
// doubled from one minute to the next, which swamped every other effect.
// The WAL's own costs are probed separately (probeWAL).
type sysConfig struct {
	dataDir   string // checkpoints and the feedback ledger; "" for none
	cache     int
	ckptEvery time.Duration
}

func (c sysConfig) options() []neogeo.Option {
	opts := []neogeo.Option{
		neogeo.WithShards(shards),
		neogeo.WithWorkers(runtime.GOMAXPROCS(0)),
		neogeo.WithAnswerCache(c.cache),
		neogeo.WithCheckpointInterval(c.ckptEvery),
	}
	if c.dataDir != "" {
		opts = append(opts, neogeo.WithDataDir(c.dataDir))
	}
	return opts
}

func (c sysConfig) core() core.Config {
	return core.Config{
		Shards:             shards,
		Workers:            runtime.GOMAXPROCS(0),
		AnswerCache:        c.cache,
		CheckpointInterval: c.ckptEvery,
		DataDir:            c.dataDir,
	}
}

// openPipe builds the facade pipeline, or with a tracer the decorated
// core pipeline (returned a second time so probes can reach its layers).
func openPipe(c sysConfig, tr *tracer) (pipeline, *corePipe, error) {
	if tr == nil {
		sys, err := neogeo.New(c.options()...)
		if err != nil {
			return nil, nil, err
		}
		return facadePipe{sys: sys}, nil, nil
	}
	cp, err := newCorePipe(c.core(), tr)
	if err != nil {
		return nil, nil, err
	}
	return cp, cp, nil
}

// texts lists the messages' bodies.
func texts(msgs []tweetgen.Message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = m.Text
	}
	return out
}

// probeExtraction times direct calls into the extraction layers — type
// classification, the full extraction, NER, and for each recognised
// location the fuzzy gazetteer lookup and its disambiguation — on texts,
// through the live system's own gazetteer, ontology and services.
func probeExtraction(ctx context.Context, tr *tracer, sys *core.System, texts []string) error {
	x := ner.NewExtractor(sys.Gaz, sys.Ont)
	now := time.Now()
	for _, text := range texts {
		_, sp := tr.start(ctx, spanClassify)
		sys.IE.ClassifyType(text)
		sp.end(1)
		_, sp = tr.start(ctx, spanExtract)
		_, err := sys.IE.Extract(ctx, text, "probe", now)
		sp.end(1)
		if err != nil {
			return fmt.Errorf("probe extract: %w", err)
		}
		_, sp = tr.start(ctx, spanNER)
		ents := x.ExtractInformal(text)
		sp.end(1)
		for _, e := range ents {
			if e.Type != ner.TypeLocation {
				continue
			}
			_, sp = tr.start(ctx, spanFuzzy)
			sys.Gaz.LookupFuzzy(e.Text, x.FuzzyDistance)
			sp.end(1)
			_, sp = tr.start(ctx, spanDisambig)
			_, err := sys.IE.Resolver().Resolve(e.Text, disambig.Context{PreferCities: true})
			sp.end(1)
			if err != nil {
				return fmt.Errorf("probe disambiguate %q: %w", e.Text, err)
			}
		}
	}
	return nil
}

// probeQA times direct calls into the QA service on the extractions of
// questions; the decorated store records each call's query as a child
// span. It returns how many results the answers kept.
func probeQA(ctx context.Context, tr *tracer, sys *core.System, questions []string) (kept int, err error) {
	now := time.Now()
	for _, q := range questions {
		ex, err := sys.IE.Extract(ctx, q, "probe", now)
		if err != nil {
			return kept, fmt.Errorf("probe extract: %w", err)
		}
		if ex.Type != extract.TypeRequest {
			continue
		}
		actx, sp := tr.start(ctx, spanQA)
		ans, err := sys.QA.Answer(actx, ex)
		sp.end(1)
		if err != nil {
			return kept, fmt.Errorf("probe answer: %w", err)
		}
		kept += len(ans.Results)
	}
	return kept, nil
}

// ackBatchSize is one integration batch: the coordinator's default.
const ackBatchSize = 16

// probeWAL times the write-ahead log's two fsync points on a WAL-backed
// queue of its own in dir: each Enqueue, and AckBatch of one integration
// batch.
func probeWAL(ctx context.Context, tr *tracer, dir string, msgs []tweetgen.Message, batches int) error {
	q, err := mq.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return fmt.Errorf("probe queue: %w", err)
	}
	for b := 0; b < batches; b++ {
		ids := make([]int64, 0, ackBatchSize)
		for k := 0; k < ackBatchSize; k++ {
			m := msgs[(b*ackBatchSize+k)%len(msgs)]
			_, sp := tr.start(ctx, spanEnqueue)
			_, err := q.Enqueue(m.Text, m.Source)
			sp.end(1)
			if err != nil {
				_ = q.Close() // the enqueue error is the one to report
				return fmt.Errorf("probe enqueue: %w", err)
			}
		}
		for k := 0; k < ackBatchSize; k++ {
			m, ok := q.Dequeue()
			if !ok {
				_ = q.Close() // the missing message is the error to report
				return fmt.Errorf("probe queue lost a message")
			}
			ids = append(ids, m.ID)
		}
		_, sp := tr.start(ctx, spanAckBatch)
		_, err := q.AckBatch(ids)
		sp.end(len(ids))
		if err != nil {
			_ = q.Close() // the ack error is the one to report
			return fmt.Errorf("probe ack: %w", err)
		}
	}
	return q.Close()
}
