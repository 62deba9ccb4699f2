//===- batch_throughput.cpp - Batch driver scaling ------------------------===//
//
// google-benchmark timings of the batch allocation pipeline over a fixed
// 64-program generated corpus, swept across worker counts from 1 up to the
// hardware concurrency (so the scaling curve is visible wherever the bench
// runs) and across cold/warm/duplicate cache configurations. Each run
// reports programs/s as a counter, so 2x speedup at --jobs 4 reads directly
// off the `programs_per_sec` column.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "driver/AnalysisCache.h"
#include "driver/BatchPipeline.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "workloads/ProgramGenerator.h"

#include "benchmark/benchmark.h"

#include <string>
#include <vector>

using namespace npral;

namespace {

constexpr int CorpusSize = 64;

/// The fixed benchmark corpus: 64 two-thread programs. With \p Duplicated,
/// every program appears twice in a 64-entry corpus (32 distinct), the
/// shared-kernel case the cache is built for.
std::vector<BatchJob> makeCorpus(bool Duplicated) {
  std::vector<BatchJob> Jobs;
  const int Distinct = Duplicated ? CorpusSize / 2 : CorpusSize;
  for (int I = 0; I < CorpusSize; ++I) {
    const uint64_t Seed = static_cast<uint64_t>(I % Distinct) + 1;
    BatchJob Job;
    Job.Name = "p" + std::to_string(I);
    for (int T = 0; T < 2; ++T) {
      GeneratorConfig Config;
      Config.TargetInstructions = 90;
      Config.CtxRatePerMille = 160;
      Config.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
      Config.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
      Program P = generateRandomProgram(Seed * 10 + static_cast<uint64_t>(T),
                                        Config);
      P.Name = "t" + std::to_string(T);
      Job.Program.Threads.push_back(std::move(P));
    }
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

void reportStats(benchmark::State &State, const PipelineStats &Stats) {
  State.counters["programs_per_sec"] = benchmark::Counter(
      Stats.throughput(), benchmark::Counter::kAvgIterations);
  State.counters["cache_hit_rate"] = Stats.cacheHitRate();
}

/// Cold pipeline at a given worker count: every iteration allocates the
/// full corpus from scratch.
void BM_BatchJobs(benchmark::State &State, int Jobs, bool UseCache) {
  std::vector<BatchJob> Corpus = makeCorpus(/*Duplicated=*/false);
  BatchOptions Opts;
  Opts.Jobs = Jobs;
  Opts.UseCache = UseCache;
  PipelineStats Last;
  for (auto _ : State) {
    BatchResult R = runBatch(Corpus, Opts);
    if (!R.allSucceeded())
      reportFatalError("batch corpus failed to allocate");
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Results.data());
  }
  reportStats(State, Last);
}

/// Duplicate-heavy corpus with an intra-run cache: half the analysis work
/// is redundant and should be absorbed by hits.
void BM_BatchDuplicates(benchmark::State &State, int Jobs) {
  std::vector<BatchJob> Corpus = makeCorpus(/*Duplicated=*/true);
  BatchOptions Opts;
  Opts.Jobs = Jobs;
  Opts.UseCache = true;
  PipelineStats Last;
  for (auto _ : State) {
    BatchResult R = runBatch(Corpus, Opts);
    if (!R.allSucceeded())
      reportFatalError("batch corpus failed to allocate");
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Results.data());
  }
  reportStats(State, Last);
}

/// Warm shared cache: the first batch fills it, timed iterations hit on
/// every thread (the recompile/CI loop).
void BM_BatchWarmCache(benchmark::State &State, int Jobs) {
  std::vector<BatchJob> Corpus = makeCorpus(/*Duplicated=*/false);
  BatchOptions Opts;
  Opts.Jobs = Jobs;
  Opts.UseCache = true;
  AnalysisCache Cache;
  runBatch(Corpus, Opts, &Cache); // warm-up, untimed
  PipelineStats Last;
  for (auto _ : State) {
    BatchResult R = runBatch(Corpus, Opts, &Cache);
    if (!R.allSucceeded())
      reportFatalError("batch corpus failed to allocate");
    Last = R.Stats;
    benchmark::DoNotOptimize(R.Results.data());
  }
  reportStats(State, Last);
}

} // namespace

int main(int argc, char **argv) {
  std::vector<int> JobCounts = {1, 2, 4};
  const int HW = ThreadPool::hardwareConcurrency();
  if (HW > 4)
    JobCounts.push_back(HW);

  for (int Jobs : JobCounts) {
    benchmark::RegisterBenchmark(
        ("batch_cold/jobs" + std::to_string(Jobs)).c_str(), BM_BatchJobs,
        Jobs, /*UseCache=*/false);
    benchmark::RegisterBenchmark(
        ("batch_cached/jobs" + std::to_string(Jobs)).c_str(), BM_BatchJobs,
        Jobs, /*UseCache=*/true);
    benchmark::RegisterBenchmark(
        ("batch_duplicates/jobs" + std::to_string(Jobs)).c_str(),
        BM_BatchDuplicates, Jobs);
    benchmark::RegisterBenchmark(
        ("batch_warm/jobs" + std::to_string(Jobs)).c_str(), BM_BatchWarmCache,
        Jobs);
  }

  std::vector<std::string> ArgStorage;
  std::vector<char *> ArgPtrs;
  argv = rewriteJsonFlagForGoogleBenchmark("batch_throughput", argc, argv, ArgStorage,
                                           ArgPtrs);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
