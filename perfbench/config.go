package main

import "time"

// sizes holds every rate, pool size and stream length a workload uses.
// They are constants of the benchmark, never derived from a capacity
// measured at run time, so a parent commit and a change see the same
// workload. The self-tests shrink them.
type sizes struct {
	// minRounds is how many set-up + measure rounds a run makes at
	// least; a run keeps adding rounds until --seconds have passed.
	minRounds int

	// ingest
	ingestWarmup    int           // messages drained before timing (warms the fuzzy-lookup memo)
	ingestBatch     int           // capacity phase: messages submitted, then drained
	freshRate       float64       // freshness phase: offered msgs/s, about a third of capacity
	freshFor        time.Duration // freshness phase length
	ingestCkpts     int           // checkpoints written at the end of a round
	ingestProbeMsgs int           // traced runs: messages the layer probe replays
	ackProbeBatches int           // traced runs: AckBatch calls the WAL probe times

	// ask-miss
	askPreload   int // reports ingested before the closed loop
	askWarmup    int // distinct questions asked before timing, outside the pool
	askPool      int // distinct questions per round, each asked once
	askGenerated int // questions generated to find askPool+askWarmup distinct ones
	askProbeQs   int // traced runs: questions the layer probe replays

	// serve-mixed
	servePreload  int           // reports ingested before the open loop
	servePool     int           // distinct questions, fewer than the cache holds
	serveCache    int           // answer-cache capacity
	serveRate     float64       // offered operations/s
	serveFor      time.Duration // open-loop length
	serveCkptTick time.Duration // server checkpoint cadence
}

// full is the benchmark's workload definition.
var full = sizes{
	minRounds: 3,

	ingestWarmup:    1000,
	ingestBatch:     8000,
	freshRate:       1600,
	freshFor:        time.Second,
	ingestCkpts:     3,
	ingestProbeMsgs: 600,
	ackProbeBatches: 60,

	askPreload:   3000,
	askWarmup:    300,
	askPool:      8000,
	askGenerated: 120000,
	askProbeQs:   600,

	servePreload:  1500,
	servePool:     1000,
	serveCache:    4096,
	serveRate:     800,
	serveFor:      3 * time.Second,
	serveCkptTick: time.Second,
}

// Settings shared by every workload.
const (
	shards       = 4
	noise        = 0.4 // tweetgen noise: probability of each noise transform
	requestRatio = 0.2 // share of requests in the ingest stream
	// submitShare and verdictShare split serve-mixed operations; the
	// rest are asks. Verdicts land on about 5% of answered asks.
	submitShare  = 0.10
	verdictShare = 0.045
	zipfS        = 1.1 // serve-mixed question popularity skew
	// Stream seeds are derived from --seed, one per input kind, so the
	// kinds do not share a prefix.
	seedStream    = 1
	seedQuestions = 2
	seedOps       = 3
)
