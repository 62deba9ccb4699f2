//===- AraGrid.cpp - ara-grid: the paper's Table 3 scenarios on the grid --===//
//
// runKernelPoolGrid as `npralc grid` users run it: the `mixed` pool on 16
// engines and s1, s2, s3 each on one engine, bounds placement, Nreg 128.
// One op is one grid call; the seed rotates the order of the four calls.
//
// The check replays each call layer by layer: placement, per-engine
// allocation (validated), the lockstep grid run — whose cycles, iterations
// and messages must equal the entry point's — and, per engine, equivalence
// runs whose output hashes must equal the virtual-register reference, as
// bench/table3_ara checks them.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "grid/GridHarness.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>

using namespace npral;
using namespace npral::bench;

namespace {

struct GridCall {
  const char *Pool;
  int Engines;
};
const GridCall Calls[] = {{"mixed", 16}, {"s1", 1}, {"s2", 1}, {"s3", 1}};
constexpr int NumCalls = 4;
constexpr int SetupRepeats = 5;

GridOptions gridOptions(const GridCall &C) {
  GridOptions GO;
  GO.NumEngines = C.Engines;
  GO.Policy = PlacementPolicy::Bounds;
  GO.Nreg = 128;
  return GO;
}

/// What a grid call must reproduce exactly.
struct Signature {
  int64_t Cycles = 0, Iterations = 0, Messages = 0, Registers = 0;
  bool operator==(const Signature &O) const {
    return Cycles == O.Cycles && Iterations == O.Iterations &&
           Messages == O.Messages && Registers == O.Registers;
  }
};

Signature signatureOf(const GridReport &R) {
  Signature S{R.MaxEngineCycles, R.TotalIterations, R.MessagesSent, 0};
  for (const GridEngineReport &E : R.Engines)
    S.Registers += E.RegistersUsed;
  return S;
}

int64_t simulatedInstrs(const GridReport &R) {
  int64_t N = 0;
  for (const GridEngineReport &E : R.Engines)
    for (const ThreadStats &TS : E.Result.Threads)
      N += TS.InstrsExecuted;
  return N;
}

/// Replay one grid call layer by layer; returns its signature.
Signature replayCall(const GridCall &Call, SpanCtx C, LayerCounts &Counts,
                     Result &Res) {
  const GridOptions GO = gridOptions(Call);
  std::vector<std::string> Pool;
  buildGridPool(Call.Pool, Call.Engines, Pool);

  PlacementResult Placement;
  {
    ScopedSpan S(C.Rec, "placeThreads", C.Op, C.Tid);
    PlacementInput In;
    In.NumEngines = Call.Engines;
    In.EngineRegs = GO.Nreg;
    for (const std::string &Kernel : Pool) {
      auto It = std::find_if(In.Traits.begin(), In.Traits.end(),
                             [&](const KernelTraits &T) {
                               return T.Name == Kernel;
                             });
      if (It == In.Traits.end()) {
        In.Traits.push_back(computeKernelTraits(Kernel));
        It = In.Traits.end() - 1;
      }
      In.Pool.push_back(static_cast<int>(It - In.Traits.begin()));
    }
    Placement = placeThreads(In, GO.Policy);
  }

  Signature Sig;
  EngineGrid Grid(GO.HopLatency, GO.InitialCredits);
  for (int E = 0; E < Call.Engines; ++E) {
    const std::string Engine =
        std::string(Call.Pool) + " engine " + std::to_string(E);
    std::vector<Workload> Workloads;
    auto load = [&](Simulator &Sim) {
      for (size_t T = 0; T < Workloads.size(); ++T) {
        for (const Workload::MemRegion &Region : Workloads[T].InitMemory)
          Sim.writeMemory(Region.Base, Region.Words);
        Sim.setEntryValues(static_cast<int>(T), Workloads[T].EntryValues);
      }
    };
    MultiThreadProgram Virtual;
    Allocated A;
    {
      // Per-engine compilation, as runKernelPoolGrid does it.
      ScopedSpan S(C.Rec, "grid.compileEngine", C.Op, C.Tid);
      const std::vector<int> &Bin = Placement.Bins[static_cast<size_t>(E)];
      for (size_t Slot = 0; Slot < Bin.size(); ++Slot)
        Workloads.push_back(
            buildWorkload(Pool[static_cast<size_t>(Bin[Slot])],
                          static_cast<int>(Slot))
                .take());
      Virtual = toMultiThreadProgram(
          Workloads, std::string(Call.Pool) + "_e" + std::to_string(E));
      A = replayAllocation(Virtual, GO.Nreg, /*AllowSpill=*/true, C, Counts);
      if (!A.Ok) {
        Res.fail(Engine + ": " + A.Why);
        return Sig;
      }
      Sig.Registers += A.Registers;
      MicroEngine &ME = Grid.addEngine(A.Physical, GO.Sim);
      load(ME.sim());
    }
    replayRoundTrip(Virtual, C, Counts);
    // Equivalence: every thread halts at its target iteration, so the
    // memory image is independent of the interleaving. The sim.* metrics
    // describe the grid run only, so these check runs record no spans and
    // no counts.
    ScopedSpan S(C.Rec, "simulateEquivalence", C.Op, C.Tid);
    Simulator Ref(Virtual, equivalenceConfig());
    Simulator Phys(A.Physical, equivalenceConfig());
    load(Ref);
    load(Phys);
    SpanRecorder Off(false);
    LayerCounts Equivalence;
    const SimResult RR = replaySimulation(Ref, {Off, C.Op, C.Tid}, Equivalence);
    const SimResult RP =
        replaySimulation(Phys, {Off, C.Op, C.Tid}, Equivalence);
    for (const Workload &W : Workloads)
      if (!RR.Completed || !RP.Completed ||
          Ref.hashMemoryRange(W.OutputBase, W.OutputLen) !=
              Phys.hashMemoryRange(W.OutputBase, W.OutputLen))
        Res.fail(Engine + ": output of " + W.Name +
                 " differs from the reference");
  }

  GridRunResult Run;
  {
    ScopedSpan S(C.Rec, "EngineGrid::run", C.Op, C.Tid);
    Run = Grid.run();
  }
  if (!Run.Completed)
    Res.fail(std::string(Call.Pool) + " grid run failed: " + Run.FailReason);
  Sig.Cycles = Run.MaxEngineCycles;
  Sig.Messages = Run.MessagesSent;
  Counts.Messages += Run.MessagesSent;
  for (const SimResult &R : Run.Engines) {
    Counts.SimCycles += R.TotalCycles;
    Counts.SimIdle += R.IdleCycles;
    for (const ThreadStats &TS : R.Threads) {
      Sig.Iterations += TS.Iterations;
      Counts.SimInstrs += TS.InstrsExecuted;
      Counts.SimCtx += TS.CtxEvents;
      Counts.SimIters += TS.Iterations;
      Counts.StallCycles += TS.InterconnectStallCycles;
    }
  }
  ++Counts.Ops;
  return Sig;
}

} // namespace

Result bench::runAraGrid(const Options &O) {
  Result Res;
  const int FirstCall = static_cast<int>(O.Seed % NumCalls);

  // Set-up: the placement traits of every kernel and an untimed warm-up
  // round of the four calls.
  std::vector<int64_t> SetupNs;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    const int64_t T0 = nowNs();
    for (const std::string &K : getWorkloadNames())
      (void)computeKernelTraits(K);
    for (const GridCall &C : Calls) {
      std::vector<std::string> Pool;
      buildGridPool(C.Pool, C.Engines, Pool);
      (void)runKernelPoolGrid(C.Pool, Pool, gridOptions(C));
    }
    SetupNs.push_back(nowNs() - T0);
  }

  // Closed loop of grid calls in rounds of the four calls: at least one
  // round, then until the deadline. Every metric is the median over rounds.
  std::vector<std::vector<double>> RoundMs;
  std::vector<double> RoundOpsPerS, RoundMinstrPerS;
  std::vector<Signature> Sigs;
  std::vector<int> Kinds;
  int64_t RoundIters = 0, RoundCycles = 0;
  const int64_t Deadline =
      nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  for (int Round = 0; Round == 0 || (!O.Trace && nowNs() < Deadline);
       ++Round) {
    // The grid runs on this thread; its CPU time is the simulator's.
    int64_t RoundNs = 0, RoundCpuNs = 0, Instrs = 0;
    RoundMs.emplace_back();
    for (int I = 0; I < NumCalls; ++I) {
      const int K = (FirstCall + I) % NumCalls;
      const GridCall &C = Calls[K];
      std::vector<std::string> Pool;
      buildGridPool(C.Pool, C.Engines, Pool);
      const int64_t T0 = nowNs(), Cpu0 = threadCpuNs();
      GridReport R = runKernelPoolGrid(C.Pool, Pool, gridOptions(C));
      const int64_t Ns = nowNs() - T0;
      RoundNs += Ns;
      RoundCpuNs += threadCpuNs() - Cpu0;
      RoundMs.back().push_back(millis(Ns));
      if (!R.Success)
        std::fprintf(stderr, "npral-bench: grid %s failed: %s\n", C.Pool,
                     R.FailReason.c_str());
      Sigs.push_back(R.Success ? signatureOf(R) : Signature{});
      Kinds.push_back(K);
      Instrs += simulatedInstrs(R);
      if (Round == 0) {
        RoundIters += R.TotalIterations;
        RoundCycles += R.MaxEngineCycles;
      }
    }
    RoundOpsPerS.push_back(NumCalls / seconds(RoundNs));
    RoundMinstrPerS.push_back(static_cast<double>(Instrs) / 1e6 /
                              seconds(RoundCpuNs));
  }

  // Check (and, traced, measure): replay each call layer by layer.
  // Traced, the replay repeats until the deadline to add span timings, and
  // each replay follows an untimed-loop call of the entry point on the same
  // pool, whose time the replay's spans are accounted against.
  SpanRecorder Rec(O.Trace);
  LayerCounts Counts;
  Signature Checked[NumCalls];
  std::vector<double> EntryMs[NumCalls];
  replayRounds(NumCalls, 1, O.Trace ? Deadline : 0,
               [&](int K, int64_t Op, int Tid, bool First) {
                 if (O.Trace) {
                   std::vector<std::string> Pool;
                   buildGridPool(Calls[K].Pool, Calls[K].Engines, Pool);
                   const int64_t T0 = nowNs();
                   (void)runKernelPoolGrid(Calls[K].Pool, Pool,
                                           gridOptions(Calls[K]));
                   EntryMs[K].push_back(millis(nowNs() - T0));
                 }
                 LayerCounts Scratch;
                 Result ScratchRes;
                 ScopedSpan OpSpan(Rec, "op", Op, Tid);
                 const Signature Sig =
                     replayCall(Calls[K], SpanCtx{Rec, Op, Tid},
                                First ? Counts : Scratch,
                                First ? Res : ScratchRes);
                 if (First)
                   Checked[K] = Sig;
               });
  int64_t Failed = 0;
  for (size_t I = 0; I < Sigs.size(); ++I) {
    if (!(Sigs[I] == Checked[Kinds[I]])) {
      ++Failed;
      Res.fail(std::string("grid call ") + Calls[Kinds[I]].Pool +
               " does not reproduce its layer-by-layer replay");
    }
  }
  Res.Attempted = static_cast<int64_t>(Sigs.size());
  Res.Failed = Failed;
  uint64_t Outputs = fnv1aHash("ara-grid");
  for (const Signature &S : Checked)
    Outputs = fnv1aCombine(fnv1aCombine(Outputs, S.Cycles), S.Iterations);
  printDigest("ara-grid", Counts, Outputs);
  printLayerDigest("ara-grid", Counts);
  std::printf("ara-grid: %zu grid calls in %zu rounds\n", Sigs.size(),
              RoundOpsPerS.size());

  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = medianSetup(SetupNs);
    E.OpsPerS = median(RoundOpsPerS);
    // A round holds one call of each pool, so its median sits between the
    // two middle pools and its tail is the 16-engine call.
    E.OpMsSlices = RoundMs;
    E.ProvedFrac = 1.0 - static_cast<double>(Failed) /
                             static_cast<double>(Sigs.size());
    E.CodeInstrs = Counts.CodeInstrs;
    E.SimItersPerKcycle = itersPerKcycle(RoundIters, RoundCycles);
    E.SimMinstrPerS = median(RoundMinstrPerS);
    E.emit(Res);
    return Res;
  }

  // The entry point does not verify or validate its allocations, and its
  // simulators run inside EngineGrid::run.
  EntryWork Entry;
  for (const std::vector<double> &V : EntryMs)
    Entry.Ms.push_back(median(V));
  Entry.NotInEntry = {"verifyAllocationSafety", "validateTranslation"};
  Entry.SimSpan = "EngineGrid::run";
  addLayerMetrics(Rec, Counts, Entry, Res);
  exportTrace(Rec, O, Res);
  addTraceOverhead(
      [&](SpanRecorder &R) {
        LayerCounts Scratch;
        Result Ignored;
        for (int K = 1; K < NumCalls; ++K) {
          ScopedSpan OpSpan(R, "op", K + 1, 1);
          (void)replayCall(Calls[K], SpanCtx{R, K + 1, 1}, Scratch, Ignored);
        }
      },
      Res);
  return Res;
}
