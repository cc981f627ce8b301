package main

import (
	"context"
	"errors"
	"sync/atomic"

	neogeo "repro"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/qa"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/xmldb"
)

// errNotAQuestion marks an ask the classifier took for a contribution.
// It is a refusal, not a failure.
var errNotAQuestion = errors.New("not a question")

// outcome is what the ingest and ask-miss workloads read off one
// processed message.
type outcome struct {
	id  int64
	typ string
}

// answer is what the workloads read off one answered question.
type answer struct {
	text, query string
	results     []result
}

type result struct {
	id    int64
	score float64
}

// pipeState is the system state the workloads check and report.
type pipeState struct {
	pending, acked, dead int
	records              int
	hits                 int64 // answer-cache hits
}

// pipeline is the surface the ingest and ask-miss workloads drive. The
// untraced runs drive the public facade; the traced runs drive the same
// core system with timing decorators spliced between its layers.
type pipeline interface {
	Submit(ctx context.Context, body, source string) (int64, error)
	// Drain processes pending messages until the queue is empty, calling
	// emit once per message as it leaves the pipeline.
	Drain(ctx context.Context, emit func(outcome, error))
	Ingest(ctx context.Context, body, source string) (outcome, error)
	Ask(ctx context.Context, question, source string) (answer, error)
	// Checkpoint writes one durable image and returns its size in bytes.
	Checkpoint(ctx context.Context) (int64, error)
	State() pipeState
	Close() error
}

// facadePipe drives the public neogeo facade.
type facadePipe struct{ sys *neogeo.System }

func (p facadePipe) Submit(ctx context.Context, body, source string) (int64, error) {
	return p.sys.Submit(ctx, body, source)
}

func (p facadePipe) Drain(ctx context.Context, emit func(outcome, error)) {
	for out, err := range p.sys.Drain(ctx, 0) {
		if err != nil {
			emit(outcome{}, err)
			continue
		}
		emit(facadeOutcome(out), nil)
	}
}

func (p facadePipe) Ingest(ctx context.Context, body, source string) (outcome, error) {
	out, err := p.sys.Ingest(ctx, body, source)
	if err != nil {
		return outcome{}, err
	}
	return facadeOutcome(out), nil
}

func (p facadePipe) Ask(ctx context.Context, question, source string) (answer, error) {
	ans, err := p.sys.Ask(ctx, question, source)
	if errors.Is(err, neogeo.ErrNotAQuestion) {
		return answer{}, errNotAQuestion
	}
	if err != nil {
		return answer{}, err
	}
	return facadeAnswer(ans), nil
}

func (p facadePipe) Checkpoint(ctx context.Context) (int64, error) {
	info, err := p.sys.Checkpoint(ctx)
	return info.Bytes, err
}

func (p facadePipe) State() pipeState { return facadeState(p.sys.Stats()) }

func (p facadePipe) Close() error { return p.sys.Close() }

func facadeOutcome(o *neogeo.Outcome) outcome {
	return outcome{id: o.MessageID, typ: string(o.Type)}
}

func facadeAnswer(a *neogeo.Answer) answer {
	out := answer{text: a.Text, query: a.Query, results: make([]result, len(a.Results))}
	for i, r := range a.Results {
		out.results[i] = result{id: r.ID, score: r.Certainty}
	}
	return out
}

func facadeState(st neogeo.Stats) pipeState {
	return pipeState{
		pending: st.Queue.Pending,
		acked:   st.Queue.Acked,
		dead:    st.Queue.DeadLettered,
		records: sum(st.ShardRecords),
		hits:    st.Cache.Hits,
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// corePipe drives a core system whose coordinator and QA service were
// rebuilt around timing decorators: the integrator every drain commits
// through and the store every answer queries. It calls the same core
// entry points the facade forwards to.
type corePipe struct {
	sys   *core.System
	integ *tracedIntegrator
	store *tracedStore
}

func newCorePipe(cfg core.Config, tr *tracer) (*corePipe, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &corePipe{
		sys:   sys,
		integ: &tracedIntegrator{inner: sys.Integrator, tr: tr},
		store: &tracedStore{inner: sys.Store, tr: tr},
	}
	qsvc, err := qa.NewService(p.store, sys.KB, sys.Gaz, sys.Ont)
	if err != nil {
		_ = sys.Close() // the construction error is the one to report
		return nil, err
	}
	mc, err := coordinator.New(sys.Queue, sys.IE, p.integ, qsvc, nil)
	if err != nil {
		_ = sys.Close() // the construction error is the one to report
		return nil, err
	}
	mc.SetWorkers(cfg.Workers)
	mc.SetBatchSize(cfg.IntegrateBatch)
	sys.QA, sys.MC = qsvc, mc
	return p, nil
}

func (p *corePipe) Submit(ctx context.Context, body, source string) (int64, error) {
	return p.sys.Submit(ctx, body, source)
}

func (p *corePipe) Drain(ctx context.Context, emit func(outcome, error)) {
	p.sys.ProcessEach(ctx, 0, func(out *coordinator.Outcome, err error) {
		if err != nil {
			emit(outcome{}, err)
			return
		}
		emit(coreOutcome(out), nil)
	})
}

func (p *corePipe) Ingest(ctx context.Context, body, source string) (outcome, error) {
	out, err := p.sys.Ingest(ctx, body, source)
	if err != nil {
		return outcome{}, err
	}
	return coreOutcome(out), nil
}

func (p *corePipe) Ask(ctx context.Context, question, source string) (answer, error) {
	ans, err := p.sys.Ask(ctx, question, source)
	var naq *coordinator.NotAQuestionError
	if errors.As(err, &naq) {
		return answer{}, errNotAQuestion
	}
	if err != nil {
		return answer{}, err
	}
	out := answer{text: ans.Text, query: ans.Query, results: make([]result, len(ans.Results))}
	for i, r := range ans.Results {
		out.results[i] = result{id: r.Record.ID, score: r.Score}
	}
	return out, nil
}

func (p *corePipe) Checkpoint(ctx context.Context) (int64, error) {
	info, err := p.sys.Checkpoint(ctx)
	return info.Size, err
}

func (p *corePipe) State() pipeState {
	q := p.sys.Queue.Stats()
	st := pipeState{pending: q.Pending, acked: q.Acked, dead: q.DeadLettered, records: sum(p.sys.Store.Balance())}
	if p.sys.Cache != nil {
		st.hits = p.sys.Cache.Stats().Hits
	}
	return st
}

func (p *corePipe) Close() error { return p.sys.Close() }

func coreOutcome(o *coordinator.Outcome) outcome {
	return outcome{id: o.MessageID, typ: string(o.Type)}
}

// tracedIntegrator times every integration batch the coordinator commits
// and counts what the batches did.
type tracedIntegrator struct {
	inner            coordinator.Integrator
	tr               *tracer
	inserted, merged atomic.Int64
}

var _ coordinator.Integrator = (*tracedIntegrator)(nil)

func (t *tracedIntegrator) Lanes() int { return t.inner.Lanes() }

func (t *tracedIntegrator) Route(tpls []extract.Template) int { return t.inner.Route(tpls) }

func (t *tracedIntegrator) IntegrateGroups(lane int, groups [][]extract.Template) [][]integrate.BatchResult {
	// The interface carries no context: each batch is a request of its own.
	_, sp := t.tr.start(context.Background(), spanIntegrate)
	res := t.inner.IntegrateGroups(lane, groups)
	sp.end(len(groups))
	for _, group := range res {
		for _, r := range group {
			switch {
			case r.Err != nil || r.Result == nil:
			case r.Result.Action == integrate.ActionInserted:
				t.inserted.Add(1)
			case r.Result.Action == integrate.ActionMerged:
				t.merged.Add(1)
			}
		}
	}
	return res
}

// tracedStore times every store query the QA service runs, as a child of
// the span the request context carries.
type tracedStore struct {
	inner *shard.Store
	tr    *tracer
}

var (
	_ qa.Store        = (*tracedStore)(nil)
	_ qa.ContextStore = (*tracedStore)(nil)
)

func (s *tracedStore) Run(query string) ([]xmldb.Result, error) {
	// The QA service prefers RunContext; Run exists to satisfy qa.Store.
	return s.RunContext(context.Background(), query)
}

func (s *tracedStore) RunContext(ctx context.Context, query string) ([]xmldb.Result, error) {
	ctx, sp := s.tr.start(ctx, spanStoreQuery)
	res, err := s.inner.RunContext(ctx, query)
	sp.end(len(res))
	return res, err
}

// tracedSystem times the facade calls the HTTP server makes, as children
// of the span around the request that made them.
type tracedSystem struct {
	*neogeo.System
	tr *tracer
}

var _ server.System = tracedSystem{}

func (s tracedSystem) Ask(ctx context.Context, question, source string) (*neogeo.Answer, error) {
	ctx, sp := s.tr.start(ctx, spanSysAsk)
	ans, err := s.System.Ask(ctx, question, source)
	sp.end(1)
	return ans, err
}

func (s tracedSystem) Submit(ctx context.Context, body, source string) (int64, error) {
	ctx, sp := s.tr.start(ctx, spanSysSubmit)
	id, err := s.System.Submit(ctx, body, source)
	sp.end(1)
	return id, err
}

func (s tracedSystem) Feedback(ctx context.Context, fb neogeo.Feedback) (neogeo.FeedbackReceipt, error) {
	ctx, sp := s.tr.start(ctx, spanSysFeedback)
	r, err := s.System.Feedback(ctx, fb)
	sp.end(1)
	return r, err
}

func (s tracedSystem) FlushFeedback(ctx context.Context) (int, error) {
	ctx, sp := s.tr.start(ctx, spanSysFlush)
	n, err := s.System.FlushFeedback(ctx)
	sp.end(n)
	return n, err
}

func (s tracedSystem) Checkpoint(ctx context.Context) (neogeo.CheckpointInfo, error) {
	ctx, sp := s.tr.start(ctx, spanSysCheckpoint)
	info, err := s.System.Checkpoint(ctx)
	sp.end(1)
	return info, err
}
