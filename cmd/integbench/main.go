// Command integbench runs two integration benchmarks (the workloads live
// in internal/benchkit, below the public facade, because they measure
// internal services the stable API does not expose).
//
// The default mode (-mode=e7) is experiment E7: uncertainty-aware
// probabilistic integration versus naive last-write-wins, measured as fact
// accuracy over stream length on a contradiction-laden report stream.
// Output is a TSV series: stream position, probabilistic accuracy, naive
// accuracy — EXPERIMENTS.md §E7 records a reference run.
//
// -mode=parallel measures end-to-end pipeline throughput instead: one
// synthetic tweet stream — generated once from -seed, so every
// configuration drains the identical message sequence — is queued and
// drained once per (worker count × shard count) configuration through
// the coordinator's pipeline, reporting msgs/sec, the speedup over the
// first configuration, per-shard record balance and queue health
// (acked/dead-lettered).
//
// -mode=readheavy replays a serving mix — questions and reports
// interleaved at -ask-ratio — twice, with the shard-versioned answer
// cache off and then on (-cache entries), reporting throughput, mean ask
// latency and the cache hit rate. EXPERIMENTS.md §E15 records a
// reference run.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"repro/internal/benchkit"
)

func main() {
	var (
		mode     = flag.String("mode", "e7", "benchmark: e7 (accuracy) or parallel (throughput)")
		hotels   = flag.Int("hotels", 40, "distinct entities with a ground-truth attitude (e7)")
		msgs     = flag.Int("n", 1200, "total reports in the stream")
		step     = flag.Int("step", 100, "measurement interval (e7)")
		liarRate = flag.Float64("liars", 0.3, "fraction of reports from unreliable sources (e7)")
		seed     = flag.Int64("seed", 2011, "deterministic stream seed: every mode and configuration replays the identical stream for this value")
		workers  = flag.String("workers", "1,4,8", "comma-separated worker counts, each at least 1 (parallel)")
		shards   = flag.String("shards", "1", "comma-separated shard counts for the probabilistic store (parallel)")
		noise    = flag.Float64("noise", 0.4, "tweet-stream noise level (parallel)")
		reqRatio = flag.Float64("requests", 0.2, "fraction of request messages (parallel)")
		gazNames = flag.Int("gaznames", 2000, "synthetic gazetteer size (parallel, readheavy)")
		useWAL   = flag.Bool("wal", true, "back the queue with a write-ahead log (parallel)")
		askRatio = flag.Float64("ask-ratio", 0.9, "fraction of ask operations in the serving mix (readheavy)")
		cache    = flag.Int("cache", 256, "answer-cache capacity for the cached run (readheavy)")
		rhWork   = flag.Int("drain-workers", 4, "pipeline worker-pool width (readheavy)")
		rhShards = flag.Int("store-shards", 4, "probabilistic store shard count (readheavy)")
	)
	flag.Parse()

	switch *mode {
	case "parallel":
		err := benchkit.Parallel(context.Background(), benchkit.ParallelConfig{
			Messages:       *msgs,
			Seed:           *seed,
			Noise:          *noise,
			RequestRatio:   *reqRatio,
			GazetteerNames: *gazNames,
			UseWAL:         *useWAL,
			Workers:        *workers,
			Shards:         *shards,
		}, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
	case "e7":
		err := benchkit.E7(benchkit.E7Config{
			Hotels:   *hotels,
			Messages: *msgs,
			Step:     *step,
			LiarRate: *liarRate,
			Seed:     *seed,
		}, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
	case "readheavy":
		err := benchkit.ReadHeavy(context.Background(), benchkit.ReadHeavyConfig{
			Ops:            *msgs,
			AskRatio:       *askRatio,
			Seed:           *seed,
			Noise:          *noise,
			GazetteerNames: *gazNames,
			Workers:        *rhWork,
			Shards:         *rhShards,
			Cache:          *cache,
		}, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -mode %q (want e7, parallel or readheavy)", *mode)
	}
}
