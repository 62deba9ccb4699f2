//===- TightFuzz.cpp - tight-fuzz: batch allocation at tight budgets ------===//
//
// A closed batch loop through runBatch (2 workers, AllowSpill, Validate)
// over jobs drawn from the fuzz case-factory space: 2-4 generated threads,
// context-switch density 40-280 per mille, 4-8 long-lived values.
//
// Every fourth job is tight: its budget is the §5 lower bound
// Σ MinPR + max(MinR - MinPR) plus an offset of 0 (Fig. 8 reductions,
// greedy splitting against fragments) or -1 (below the bound: the spill
// fallback). Tight jobs use 40-instruction threads, like the fuzz suite's
// spill property, so one pass carries 80 tail samples. The other jobs draw
// 40/90/150-instruction threads and get the whole 128-register file, where
// the bounds alone settle the allocation.
//
// The tight jobs are a fixed tail corpus, the same in every run; the seed
// draws the other jobs. Drawn per seed, the few slowest of 80 tight jobs
// decide op_tail_ms and most of ops_per_s, and across ten seeds those
// spread by a third (quartile distance over median).
//
// Jobs are in-memory BatchJob::Program inputs: printed fuzz programs do
// not parse back today (duplicate 'bbN' labels), which the traced run
// reports as asmparse.roundtrip_ok_ratio.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "alloc/IntraAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "driver/BatchPipeline.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "workloads/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace npral;
using namespace npral::bench;

namespace {

/// Jobs in one pass of the closed loop (a quarter of them tight).
constexpr int PassJobs = 320;
/// Generous jobs per runBatch call (tight jobs batch by shared budget).
constexpr int GenerousBatch = 16;
constexpr int Workers = 2;
constexpr int GenerousNreg = 128;
/// Seed of the fixed tail corpus (the tight jobs).
constexpr uint64_t TailCorpusSeed = 0x7A11;
constexpr int SetupRepeats = 5;
constexpr size_t WarmUpJobs = 64;
/// Memory hashed by the simulation check: every thread's data and output
/// regions (MemBase 0x1000 + 0x800*T, OutBase 0x5000 + 0x100*T).
constexpr uint32_t HashBase = 0x1000, HashLen = 0x5000;

struct FuzzJob {
  BatchJob Job;
  int Nreg = 0;
  bool Tight = false;
};

FuzzJob makeJob(uint64_t Seed, int Index) {
  FuzzJob J;
  J.Tight = Index % 4 == 0;
  Rng R(fnv1aCombine((J.Tight ? TailCorpusSeed : Seed) *
                             0x9E3779B97F4A7C15ULL +
                         0xBE11,
                     Index));
  // Stratified over the factory's parameter grid: within each kind, job K
  // cycles through thread counts, budget offsets, context-switch densities
  // and sizes, so every seed carries the same mix and only the generated
  // programs differ.
  const int K = J.Tight ? Index / 4 : Index - Index / 4 - 1;
  const int Nthd = 2 + K % 3;
  static const int CtxRates[] = {40, 140, 280};
  static const int Sizes[] = {40, 90, 150};
  int SumMinPR = 0, MaxGap = 0;
  for (int T = 0; T < Nthd; ++T) {
    GeneratorConfig C;
    C.TargetInstructions = J.Tight ? 40 : Sizes[(K / 3 + T) % 3];
    C.CtxRatePerMille = CtxRates[(K / 6 + T) % 3];
    C.NumLongLived = static_cast<int>(4 + R.nextBelow(5));
    C.MaxDepth = static_cast<int>(2 + R.nextBelow(3));
    C.MemBase = 0x1000 + 0x800 * static_cast<uint32_t>(T);
    C.OutBase = 0x5000 + 0x100 * static_cast<uint32_t>(T);
    Program P = generateRandomProgram(R.next(), C);
    P.Name = "fuzz" + std::to_string(T);
    if (J.Tight) {
      const RegBounds B =
          computeThreadAnalysisBundle(renameLiveRanges(P)).Bounds;
      SumMinPR += B.MinPR;
      MaxGap = std::max(MaxGap, B.MinR - B.MinPR);
    }
    J.Job.Program.Threads.push_back(std::move(P));
  }
  const int Offset = (K / 3) % 2 == 0 ? 0 : -1;
  J.Nreg = J.Tight ? std::max(4 * Nthd, SumMinPR + MaxGap + Offset)
                   : GenerousNreg;
  J.Job.Name = (J.Tight ? std::string("tail") : "seed" + std::to_string(Seed)) +
               "-job" + std::to_string(Index) + "-nreg" +
               std::to_string(J.Nreg);
  J.Job.Program.Name = J.Job.Name;
  return J;
}

/// One runBatch call: jobs sharing a budget.
struct Batch {
  int Nreg = 0;
  std::vector<int> Jobs;
};

struct Inputs {
  std::vector<FuzzJob> Jobs;
  std::vector<Batch> Batches;
};

Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  std::map<int, std::vector<int>> ByBudget;
  for (int I = 0; I < PassJobs; ++I) {
    In.Jobs.push_back(makeJob(Seed, I));
    ByBudget[In.Jobs.back().Nreg].push_back(I);
  }
  std::vector<Batch> Tight, Generous;
  for (const auto &[Nreg, Ids] : ByBudget)
    for (size_t B = 0; B < Ids.size(); B += GenerousBatch) {
      Batch Bt;
      Bt.Nreg = Nreg;
      const size_t End = std::min(Ids.size(), B + GenerousBatch);
      Bt.Jobs.assign(Ids.begin() + static_cast<long>(B),
                     Ids.begin() + static_cast<long>(End));
      (Nreg == GenerousNreg ? Generous : Tight).push_back(std::move(Bt));
    }
  // Spread the two kinds evenly over the pass, so a pass cut short by the
  // deadline still runs the same mix.
  size_t T = 0, G = 0;
  while (T < Tight.size() || G < Generous.size()) {
    const bool TakeTight =
        G == Generous.size() ||
        (T < Tight.size() &&
         (T + 0.5) * Generous.size() <= (G + 0.5) * Tight.size());
    In.Batches.push_back(TakeTight ? Tight[T++] : Generous[G++]);
  }
  return In;
}

BatchOptions batchOptions(int Nreg, bool KeepPhysical) {
  BatchOptions BO;
  BO.Nreg = Nreg;
  BO.Jobs = Workers;
  BO.UseCache = true; // run-local cache: every input is new, so only writes
  BO.AllowSpill = true;
  BO.Validate = true;
  BO.KeepPhysical = KeepPhysical;
  return BO;
}

/// An op's latency: the sum of the pipeline's stage timers. The untimed
/// steps between the stages (verifyProgram, checkNoUseOfUndef and the
/// fault-isolation wrapper) are left out, since BatchJobResult carries no
/// per-job wall time.
int64_t jobStageNs(const BatchJobResult &R) {
  return R.ParseNs + R.AnalysisNs + R.BoundsNs + R.AllocNs + R.VerifyNs +
         R.ValidateNs;
}

/// Per-job record of the first pass, the reference for later passes and
/// for the traced replay.
struct JobRecord {
  uint64_t Hash = 0;
  int Moves = 0;
  int Spilled = 0;
  int Regs = 0;
  int64_t CodeInstrs = 0;
  MultiThreadProgram Physical;
};

/// Check one job result; records the first pass, compares later ones.
bool checkJob(const BatchJobResult &R, bool FirstPass, JobRecord &Rec,
              Result &Res) {
  if (!R.Success || !R.Validated) {
    std::fprintf(stderr, "npral-bench: job %s failed in %s: %s\n",
                 R.Name.c_str(), R.FailStage.c_str(), R.FailReason.c_str());
    if (R.FailStage == "validate")
      Res.fail("translation validation refuted " + R.Name);
    return false;
  }
  if (FirstPass) {
    Rec.Hash = physicalHash(R.Physical);
    Rec.Moves = R.TotalMoveCost;
    Rec.Spilled = R.SpilledRanges;
    Rec.Regs = R.RegistersUsed;
    Rec.CodeInstrs = instructionCount(R.Physical);
    Rec.Physical = R.Physical;
    return true;
  }
  if (R.TotalMoveCost != Rec.Moves || R.SpilledRanges != Rec.Spilled ||
      R.RegistersUsed != Rec.Regs) {
    Res.fail("job " + R.Name + " allocated differently on a later pass");
    return false;
  }
  return true;
}

/// Simulate the virtual and the allocated program of \p J; their memory
/// images must agree. Returns the allocated program's run.
SimResult simulateJob(const FuzzJob &J, const MultiThreadProgram &Physical,
                      SpanCtx C, LayerCounts &Counts, Result &Res) {
  ScopedSpan S(C.Rec, "simulateEquivalence", C.Op, C.Tid);
  Simulator Virt(J.Job.Program, SimConfig());
  Simulator Phys(Physical, SimConfig());
  LayerCounts Ignored; // the reference run does not count as generated code
  const SimResult RV = replaySimulation(Virt, C, Ignored);
  const SimResult RP = replaySimulation(Phys, C, Counts);
  Counts.SimInstrs += Ignored.SimInstrs;
  if (!RV.Completed || !RP.Completed ||
      Virt.hashMemoryRange(HashBase, HashLen) !=
          Phys.hashMemoryRange(HashBase, HashLen))
    Res.fail("simulated output of " + J.Job.Name +
             " differs from its virtual program");
  return RP;
}

/// Everything the closed loop measured. Each batch and each job is timed
/// once per pass; the metrics use the median of those repetitions, so a
/// transient slowdown of the host does not move them.
struct LoopStats {
  int64_t Ops = 0, Failed = 0, CacheHits = 0, CacheMisses = 0;
  /// First pass: summed job stage time and batch wall (pool utilisation).
  int64_t FirstBusyNs = 0, FirstWallNs = 0;
  std::vector<std::vector<double>> BatchMs, JobMs;
};

void runPass(const Inputs &In, bool FirstPass, std::vector<JobRecord> &Recs,
             LoopStats &LS, Result &Res, int64_t Deadline) {
  for (size_t BI = 0; BI < In.Batches.size(); ++BI) {
    const Batch &B = In.Batches[BI];
    if (!FirstPass && nowNs() >= Deadline)
      return;
    std::vector<BatchJob> Jobs;
    for (int Id : B.Jobs)
      Jobs.push_back(In.Jobs[static_cast<size_t>(Id)].Job);
    const int64_t T0 = nowNs();
    BatchResult BR = runBatch(Jobs, batchOptions(B.Nreg, FirstPass));
    const int64_t WallNs = nowNs() - T0;
    LS.BatchMs[BI].push_back(millis(WallNs));
    if (FirstPass)
      LS.FirstWallNs += WallNs;
    for (size_t I = 0; I < B.Jobs.size(); ++I) {
      const BatchJobResult &R = BR.Results[I];
      const size_t Id = static_cast<size_t>(B.Jobs[I]);
      ++LS.Ops;
      LS.JobMs[Id].push_back(millis(jobStageNs(R)));
      if (FirstPass)
        LS.FirstBusyNs += jobStageNs(R);
      LS.CacheHits += R.CacheHits;
      LS.CacheMisses += R.CacheMisses;
      if (!checkJob(R, FirstPass, Recs[Id], Res))
        ++LS.Failed;
    }
  }
}

/// Input generation plus an untimed warm-up batch of generous jobs;
/// repeated, the median is setup_s.
Inputs setUp(uint64_t Seed, std::vector<int64_t> &SetupNs) {
  Inputs In;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    const int64_t T0 = nowNs();
    In = makeInputs(Seed);
    std::vector<BatchJob> Warm;
    for (const FuzzJob &J : In.Jobs)
      if (!J.Tight && Warm.size() < WarmUpJobs)
        Warm.push_back(J.Job);
    (void)runBatch(Warm, batchOptions(GenerousNreg, false));
    SetupNs.push_back(nowNs() - T0);
  }
  return In;
}

} // namespace

Result bench::runTightFuzz(const Options &O) {
  Result Res;
  std::vector<int64_t> SetupNs;
  const Inputs In = setUp(O.Seed, SetupNs);
  std::vector<JobRecord> Recs(In.Jobs.size());

  // Passes over the corpus until the deadline. The first pass always
  // completes: its counts must not depend on timing.
  LoopStats LS;
  LS.BatchMs.resize(In.Batches.size());
  LS.JobMs.resize(In.Jobs.size());
  const int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  runPass(In, /*FirstPass=*/true, Recs, LS, Res, Deadline);
  int Passes = 1;
  for (; !O.Trace && nowNs() < Deadline; ++Passes)
    runPass(In, /*FirstPass=*/false, Recs, LS, Res, Deadline);
  Res.Attempted = LS.Ops;
  Res.Failed = LS.Failed;

  // Check pass: simulate every first-pass output against its input.
  LayerCounts Counts;
  // sim_iters_per_kcycle covers the tail corpus: the generous jobs get no
  // moves or spill code, so their code runs as their input does.
  int64_t TailIters = 0, TailCycles = 0;
  SpanRecorder Off(false);
  uint64_t Outputs = fnv1aHash("tight-fuzz");
  for (size_t I = 0; I < In.Jobs.size(); ++I) {
    const JobRecord &R = Recs[I];
    Outputs = fnv1aCombine(Outputs, R.Hash);
    if (R.Physical.Threads.empty())
      continue;
    ++Counts.Ops;
    Counts.Moves += R.Moves;
    Counts.SpilledRanges += R.Spilled;
    Counts.CodeInstrs += R.CodeInstrs;
    const SimResult Run =
        simulateJob(In.Jobs[I], R.Physical, SpanCtx{Off, 0, 0}, Counts, Res);
    if (In.Jobs[I].Tight) {
      TailCycles += Run.TotalCycles;
      for (const ThreadStats &TS : Run.Threads)
        TailIters += TS.Iterations;
    }
  }
  printDigest("tight-fuzz", Counts, Outputs);
  std::printf("tight-fuzz: %lld ops, %d passes of %zu jobs in %zu batches\n",
              static_cast<long long>(LS.Ops), Passes, In.Jobs.size(),
              In.Batches.size());

  if (!O.Trace) {
    double PassMs = 0;
    for (const std::vector<double> &V : LS.BatchMs)
      PassMs += median(V);
    std::vector<double> JobMs;
    for (const std::vector<double> &V : LS.JobMs)
      JobMs.push_back(median(V));
    EndToEnd E;
    E.SetupS = medianSetup(SetupNs);
    E.OpsPerS = static_cast<double>(In.Jobs.size()) / (PassMs / 1e3);
    E.OpMsSlices = {JobMs};
    E.ProvedFrac = 1.0 - static_cast<double>(LS.Failed) /
                             static_cast<double>(LS.Ops);
    E.CodeInstrs = Counts.CodeInstrs;
    E.SimItersPerKcycle = itersPerKcycle(TailIters, TailCycles);
    // Simulator host speed: warm runs of every allocated program, in
    // passes repeated as SimTimingPasses and SimTimingNs ask; the median
    // pass counts.
    std::vector<double> Speed;
    const int64_t SimEnd = nowNs() + SimTimingNs;
    for (int Rep = 0; Rep < SimTimingPasses || nowNs() < SimEnd; ++Rep) {
      LayerCounts C;
      for (const JobRecord &R : Recs)
        if (!R.Physical.Threads.empty() &&
            !timeSimulation(R.Physical, SimConfig(), [](Simulator &) {}, C))
          Res.fail("timing run of a first-pass output did not complete");
      Speed.push_back(static_cast<double>(C.SimInstrs) / 1e3 /
                      millis(C.SimNs));
    }
    E.SimMinstrPerS = median(Speed);
    E.emit(Res);
    return Res;
  }

  // Traced run: replay the first pass layer by layer on two workers, then
  // again until the deadline.
  Res.add("driver.pool_busy_ratio",
          static_cast<double>(LS.FirstBusyNs) /
              (static_cast<double>(LS.FirstWallNs) * Workers),
          "ratio");
  Res.add("driver.cache_hit_ratio",
          LS.CacheHits + LS.CacheMisses > 0
              ? static_cast<double>(LS.CacheHits) /
                    static_cast<double>(LS.CacheHits + LS.CacheMisses)
              : 0,
          "ratio");
  SpanRecorder Rec(true);
  std::vector<LayerCounts> PerWorker(Workers + 1);
  std::vector<uint64_t> TracedHash(In.Jobs.size());
  std::vector<Result> PerJob(In.Jobs.size());
  replayRounds(
      static_cast<int>(In.Jobs.size()), Workers, Deadline,
      [&](int I, int64_t Op, int Tid, bool First) {
        const FuzzJob &J = In.Jobs[static_cast<size_t>(I)];
        LayerCounts Scratch;
        Result ScratchRes;
        LayerCounts &C = First ? PerWorker[static_cast<size_t>(Tid)] : Scratch;
        Result &JobRes = First ? PerJob[static_cast<size_t>(I)] : ScratchRes;
        SpanCtx Ctx{Rec, Op, Tid};
        ScopedSpan OpSpan(Rec, "op", Op, Tid);
        replayRoundTrip(J.Job.Program, Ctx, C);
        Allocated A = replayAllocation(J.Job.Program, J.Nreg, true, Ctx, C);
        ++C.Ops;
        if (!A.Ok)
          return JobRes.fail(J.Job.Name + ": " + A.Why);
        if (First)
          TracedHash[static_cast<size_t>(I)] = physicalHash(A.Physical);
        simulateJob(J, A.Physical, Ctx, C, JobRes);
      });
  LayerCounts Traced;
  for (const LayerCounts &C : PerWorker)
    Traced.merge(C);
  uint64_t TracedOutputs = fnv1aHash("tight-fuzz");
  for (size_t I = 0; I < In.Jobs.size(); ++I) {
    TracedOutputs = fnv1aCombine(TracedOutputs, TracedHash[I]);
    if (!PerJob[I].Correct)
      Res.Correct = false;
    if (TracedHash[I] != Recs[I].Hash)
      Res.fail("traced allocation of " + In.Jobs[I].Job.Name +
               " differs from its batch output");
  }
  printDigest("tight-fuzz", Traced, TracedOutputs);
  printLayerDigest("tight-fuzz", Traced);
  checkSameCounts(Counts, Traced, Res);
  EntryWork Entry;
  for (const std::vector<double> &V : LS.JobMs)
    Entry.Ms.push_back(median(V));
  addLayerMetrics(Rec, Traced, Entry, Res);
  exportTrace(Rec, O, Res);

  // Overhead reference: the first eight jobs, untraced against traced.
  addTraceOverhead(
      [&](SpanRecorder &R) {
        LayerCounts Scratch;
        for (int I = 0; I < 8; ++I) {
          ScopedSpan OpSpan(R, "op", I + 1, 0);
          (void)replayAllocation(In.Jobs[static_cast<size_t>(I)].Job.Program,
                                 In.Jobs[static_cast<size_t>(I)].Nreg, true,
                                 SpanCtx{R, I + 1, 0}, Scratch);
        }
      },
      Res);
  return Res;
}
