//===- Layers.cpp - Layer-by-layer replay of the allocation path ----------===//

#include "Layers.h"

#include "alloc/AllocationVerifier.h"
#include "alloc/InterAllocator.h"
#include "alloc/IntraAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "analysis/Liveness.h"
#include "analysis/NSR.h"
#include "asmparse/AsmParser.h"
#include "harden/SpillFallback.h"
#include "ir/IRPrinter.h"
#include "lint/TranslationValidator.h"
#include "support/DiagnosticEngine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <thread>

using namespace npral;
using namespace npral::bench;

namespace {
/// The span of an allocateInterThread call that returned Infeasible.
const char *const InfeasibleSpan = "allocateInterThread:infeasible";
} // namespace

void LayerCounts::merge(const LayerCounts &O) {
  Ops += O.Ops;
  Instrs += O.Instrs;
  LiveRanges += O.LiveRanges;
  ReductionSteps += O.ReductionSteps;
  RecolorProbes += O.RecolorProbes;
  NSRExclusions += O.NSRExclusions;
  BlockSplits += O.BlockSplits;
  FragmentFallbacks += O.FragmentFallbacks;
  Moves += O.Moves;
  SpillAttempts += O.SpillAttempts;
  SpillMemOps += O.SpillMemOps;
  SpilledRanges += O.SpilledRanges;
  InstrsMatched += O.InstrsMatched;
  CodeInstrs += O.CodeInstrs;
  RoundTrips += O.RoundTrips;
  RoundTripsOk += O.RoundTripsOk;
  SimRuns += O.SimRuns;
  SimNs += O.SimNs;
  SimInstrs += O.SimInstrs;
  SimCycles += O.SimCycles;
  SimIdle += O.SimIdle;
  SimCtx += O.SimCtx;
  SimIters += O.SimIters;
  StallCycles += O.StallCycles;
  Messages += O.Messages;
}

uint64_t LayerCounts::digest() const {
  uint64_t H = fnv1aHash("npral-bench");
  for (int64_t V :
       {Ops, Instrs, LiveRanges, ReductionSteps, RecolorProbes, NSRExclusions,
        BlockSplits, FragmentFallbacks, Moves, SpillAttempts, SpillMemOps,
        SpilledRanges, InstrsMatched, CodeInstrs, RoundTrips, RoundTripsOk,
        SimRuns, SimInstrs, SimCycles, SimIdle, SimCtx, SimIters,
        StallCycles, Messages})
    H = fnv1aCombine(H, static_cast<uint64_t>(V));
  return H;
}

uint64_t bench::physicalHash(const MultiThreadProgram &Physical) {
  std::string S;
  for (const Program &T : Physical.Threads) {
    S += "=== " + T.Name + "\n";
    S += programToString(T);
  }
  return fnv1aHash(S);
}

int64_t bench::instructionCount(const MultiThreadProgram &MTP) {
  int64_t N = 0;
  for (const Program &T : MTP.Threads)
    N += T.countInstructions();
  return N;
}

Allocated bench::replayAllocation(const MultiThreadProgram &Virtual, int Nreg,
                                  bool AllowSpill, SpanCtx C,
                                  LayerCounts &Counts) {
  Allocated Out;
  Out.Renamed.Name = Virtual.Name;
  std::vector<std::shared_ptr<const ThreadAnalysisBundle>> Bundles;
  for (const Program &T : Virtual.Threads) {
    Program R;
    {
      ScopedSpan S(C.Rec, "renameLiveRanges", C.Op, C.Tid);
      R = renameLiveRanges(T);
    }
    {
      // Liveness and NSRs are timed on their own; the bundle recomputes
      // them as part of the full analysis package the allocator consumes.
      LivenessInfo LI;
      {
        ScopedSpan S(C.Rec, "computeLiveness", C.Op, C.Tid);
        LI = computeLiveness(R);
      }
      ScopedSpan S(C.Rec, "computeNSRs", C.Op, C.Tid);
      (void)computeNSRs(R, LI);
    }
    auto Bundle = std::make_shared<ThreadAnalysisBundle>();
    {
      ScopedSpan S(C.Rec, "computeThreadAnalysisBundle", C.Op, C.Tid);
      *Bundle = computeThreadAnalysisBundle(R);
    }
    Counts.Instrs += R.countInstructions();
    Counts.LiveRanges += Bundle->TA.getNumLiveRanges();
    Bundles.push_back(std::move(Bundle));
    Out.Renamed.Threads.push_back(std::move(R));
  }

  InterThreadResult Inter;
  {
    AllocationDecisionLog Log;
    {
      ScopedSpan S(C.Rec, "allocateInterThread", C.Op, C.Tid);
      Inter = allocateInterThread(Out.Renamed, Nreg, Bundles, {}, &Log);
      if (!Inter.Success && Inter.FailCode == StatusCode::Infeasible)
        S.rename(InfeasibleSpan);
    }
    Counts.ReductionSteps += static_cast<int64_t>(Log.Reductions.size());
    for (const IntraEvent &E : Log.IntraEvents) {
      Counts.RecolorProbes += E.K == IntraEvent::Recolor;
      Counts.NSRExclusions += E.K == IntraEvent::ExcludeNSR;
      Counts.BlockSplits += E.K == IntraEvent::BlockSplit;
      Counts.FragmentFallbacks += E.K == IntraEvent::FragmentFallback;
    }
  }
  if (!Inter.Success && Inter.FailCode == StatusCode::Infeasible &&
      AllowSpill) {
    SpillFallbackResult SF;
    {
      ScopedSpan S(C.Rec, "allocateWithSpillFallback", C.Op, C.Tid);
      SF = allocateWithSpillFallback(Out.Renamed, Nreg, Bundles, {}, nullptr,
                                     InterAllocLimits());
    }
    Counts.SpillAttempts += SF.Attempts;
    Counts.SpillMemOps += SF.SpillLoads + SF.SpillStores;
    Counts.SpilledRanges += SF.SpilledRanges;
    Out.SpilledRanges = SF.SpilledRanges;
    Inter = std::move(SF.Inter);
  }
  if (!Inter.Success) {
    Out.Why = "allocation failed: " + Inter.FailReason;
    return Out;
  }
  Out.Moves = Inter.TotalMoveCost;
  Out.Registers = Inter.RegistersUsed;
  Counts.Moves += Inter.TotalMoveCost;
  Out.Physical = std::move(Inter.Physical);
  Counts.CodeInstrs += instructionCount(Out.Physical);

  {
    ScopedSpan S(C.Rec, "verifyAllocationSafety", C.Op, C.Tid);
    if (Status St = verifyAllocationSafety(Out.Physical); !St.ok()) {
      Out.Why = "unsafe allocation: " + St.str();
      return Out;
    }
  }
  {
    ScopedSpan S(C.Rec, "validateTranslation", C.Op, C.Tid);
    DiagnosticEngine Diags;
    ValidationResult V = validateTranslation(Out.Renamed, Out.Physical, Diags);
    Counts.InstrsMatched += V.InstructionsMatched;
    if (!V.Proved) {
      Out.Why = "translation validation refuted the allocation";
      return Out;
    }
  }
  Out.Ok = true;
  return Out;
}

void bench::replayRoundTrip(const MultiThreadProgram &MTP, SpanCtx C,
                            LayerCounts &Counts) {
  // Its own span name: asmparse.parse_ms counts only parses of inputs.
  ScopedSpan S(C.Rec, "roundTrip", C.Op, C.Tid);
  for (const Program &T : MTP.Threads) {
    ++Counts.RoundTrips;
    Counts.RoundTripsOk += parseAssembly(programToString(T)).ok();
  }
}

SimResult bench::replaySimulation(Simulator &Sim, SpanCtx C,
                                  LayerCounts &Counts) {
  SimResult R;
  {
    ScopedSpan S(C.Rec, "Simulator::run", C.Op, C.Tid);
    R = Sim.run();
  }
  ++Counts.SimRuns;
  Counts.SimCycles += R.TotalCycles;
  Counts.SimIdle += R.IdleCycles;
  for (const ThreadStats &TS : R.Threads) {
    Counts.SimInstrs += TS.InstrsExecuted;
    Counts.SimCtx += TS.CtxEvents;
    Counts.SimIters += TS.Iterations;
  }
  return R;
}

bool bench::timeSimulation(const MultiThreadProgram &MTP,
                           const SimConfig &Config,
                           const std::function<void(Simulator &)> &Prepare,
                           LayerCounts &Counts) {
  Simulator Warm(MTP, Config), Timed(MTP, Config);
  Prepare(Warm);
  (void)Warm.run();
  Prepare(Timed);
  const int64_t T0 = threadCpuNs();
  const SimResult R = Timed.run();
  Counts.SimNs += threadCpuNs() - T0;
  for (const ThreadStats &TS : R.Threads)
    Counts.SimInstrs += TS.InstrsExecuted;
  return R.Completed;
}

void bench::replayRounds(
    int N, int Workers, int64_t Deadline,
    const std::function<void(int, int64_t, int, bool)> &Fn) {
  for (int64_t Round = 0; Round == 0 || nowNs() < Deadline; ++Round) {
    std::atomic<int> Next{0};
    std::vector<std::thread> Pool;
    for (int W = 1; W <= Workers; ++W)
      Pool.emplace_back([&, W] {
        for (int I = Next.fetch_add(1); I < N; I = Next.fetch_add(1))
          Fn(I, Round * N + I + 1, W, Round == 0);
      });
    for (std::thread &T : Pool)
      T.join();
  }
}

namespace {

/// Span name -> per-layer metric fed by its summed duration.
const std::pair<const char *, const char *> SpanMetrics[] = {
    {"parseAssembly", "asmparse.parse_ms"},
    {"renameLiveRanges", "analysis.rename_ms"},
    {"computeLiveness", "analysis.liveness_ms"},
    {"computeNSRs", "analysis.nsr_ms"},
    {"computeThreadAnalysisBundle", "analysis.bundle_ms"},
    {"verifyAllocationSafety", "alloc.verify_ms"},
    {"allocateWithSpillFallback", "harden.spill_ms"},
    {"validateTranslation", "lint.validate_ms"},
    {"EngineGrid::run", "grid.run_ms"},
    {"grid.compileEngine", "grid.alloc_ms"},
    {"placeThreads", "grid.placement_ms"},
};

/// Spans no entry point has: liveness and NSRs timed on their own (the
/// bundle computes them again), the plain allocation that the spill
/// fallback repeats as its first attempt, and the benchmark's checks.
const char *const ReplayOnly[] = {"computeLiveness", "computeNSRs",
                                  InfeasibleSpan, "roundTrip",
                                  "simulateEquivalence"};

} // namespace

void bench::addLayerMetrics(const SpanRecorder &Rec,
                            const LayerCounts &Counts, const EntryWork &Entry,
                            Result &Res) {
  const std::vector<Span> All = Rec.spans();
  std::map<int64_t, const Span *> ById, OpSpans; // span id -> span
  std::map<std::string, int64_t> ByName;
  for (const Span &S : All) {
    ByName[S.Name] += S.EndNs - S.StartNs;
    ById[S.Id] = &S;
    if (S.Name == "op")
      OpSpans[S.Id] = &S;
  }
  const double Ops = std::max<double>(1, static_cast<double>(OpSpans.size()));
  for (const auto &[Span, Metric] : SpanMetrics)
    Res.add(Metric, millis(ByName[Span]) / Ops, "ms");
  Res.add("alloc.inter_ms",
          millis(ByName["allocateInterThread"] + ByName[InfeasibleSpan]) / Ops,
          "ms");
  Res.add("alloc.infeasible_ms", millis(ByName[InfeasibleSpan]) / Ops, "ms");
  Res.add("sim.run_ms", millis(ByName[Entry.SimSpan]) / Ops, "ms");
  Res.add("trace.ops", static_cast<double>(OpSpans.size()), "count");

  // The entry point's share of each op: its direct children, less the
  // replay-only calls among them and nested in them.
  std::set<std::string> Skip(std::begin(ReplayOnly), std::end(ReplayOnly));
  Skip.insert(Entry.NotInEntry.begin(), Entry.NotInEntry.end());
  std::map<int64_t, int64_t> EntryNs; // op span id -> entry-point time
  for (const Span &S : All) {
    if (S.Name == "op")
      continue;
    bool Nested = false, UnderSkip = false;
    int64_t Up = S.Parent;
    for (; Up != 0 && !OpSpans.count(Up); Nested = true) {
      const Span *P = ById.at(Up);
      UnderSkip |= Skip.count(P->Name) > 0;
      Up = P->Parent;
    }
    if (Up == 0 || UnderSkip)
      continue;
    const bool Skipped = Skip.count(S.Name) > 0;
    if (!Nested && !Skipped)
      EntryNs[Up] += S.EndNs - S.StartNs;
    else if (Nested && Skipped)
      EntryNs[Up] -= S.EndNs - S.StartNs;
  }

  // Accounting: per input, the median over replays of that entry-point
  // share, against the entry point's own median time for the input.
  const size_t Inputs = Entry.Ms.size();
  std::vector<std::vector<double>> PerInput(Inputs);
  for (const auto &[Id, S] : OpSpans)
    if (Inputs > 0)
      PerInput[static_cast<size_t>(S->Op - 1) % Inputs].push_back(
          millis(EntryNs[Id]));
  double ReplayMs = 0, EntryMs = 0;
  for (size_t I = 0; I < Inputs; ++I) {
    ReplayMs += median(PerInput[I]);
    EntryMs += Entry.Ms[I];
  }
  Res.add("trace.accounted_ratio", EntryMs > 0 ? ReplayMs / EntryMs : 0,
          "ratio");

  // Tail attribution: the ops whose entry-point share is at or above its
  // op_tail_ms percentile, and the share of that time spent allocating
  // (plain + spill fallback).
  std::vector<double> OpMs;
  for (const auto &[Id, Ns] : EntryNs)
    OpMs.push_back(millis(Ns));
  const Tail T = tailPercentile(OpMs);
  std::set<int64_t> TailOps;
  int64_t TailNs = 0, TailAllocNs = 0;
  for (const auto &[Id, Ns] : EntryNs)
    if (millis(Ns) >= T.Value) {
      TailOps.insert(ById.at(Id)->Op);
      TailNs += Ns;
    }
  for (const Span &S : All)
    if (TailOps.count(S.Op) && (S.Name == "allocateInterThread" ||
                                S.Name == "allocateWithSpillFallback"))
      TailAllocNs += S.EndNs - S.StartNs;
  Res.add("trace.tail_alloc_spill_share",
          TailNs > 0 ? static_cast<double>(TailAllocNs) / TailNs : 0, "ratio");

  auto count = [&](const char *Name, int64_t V) {
    Res.add(Name, static_cast<double>(V), "count");
  };
  count("analysis.instrs", Counts.Instrs);
  count("analysis.live_ranges", Counts.LiveRanges);
  count("alloc.reduction_steps", Counts.ReductionSteps);
  count("alloc.recolor_probes", Counts.RecolorProbes);
  count("alloc.nsr_exclusions", Counts.NSRExclusions);
  count("alloc.block_splits", Counts.BlockSplits);
  count("alloc.fragment_fallbacks", Counts.FragmentFallbacks);
  Res.add("alloc.fragment_fallback_ratio",
          Counts.RecolorProbes > 0
              ? static_cast<double>(Counts.FragmentFallbacks) /
                    static_cast<double>(Counts.RecolorProbes)
              : 0,
          "ratio");
  count("alloc.moves_inserted", Counts.Moves);
  count("harden.spill_attempts", Counts.SpillAttempts);
  count("harden.spill_mem_ops", Counts.SpillMemOps);
  count("harden.spilled_ranges", Counts.SpilledRanges);
  count("lint.instrs_matched", Counts.InstrsMatched);
  Res.add("asmparse.roundtrip_ok_ratio",
          Counts.RoundTrips > 0 ? static_cast<double>(Counts.RoundTripsOk) /
                                      static_cast<double>(Counts.RoundTrips)
                                : 0,
          "ratio");
  count("sim.instrs", Counts.SimInstrs);
  count("sim.cycles", Counts.SimCycles);
  count("sim.ctx_switches", Counts.SimCtx);
  Res.add("sim.idle_ratio",
          Counts.SimCycles > 0 ? static_cast<double>(Counts.SimIdle) /
                                     static_cast<double>(Counts.SimCycles)
                               : 0,
          "ratio");
  count("grid.interconnect_stall_cycles", Counts.StallCycles);
  count("grid.messages", Counts.Messages);
}

void bench::addTraceOverhead(
    const std::function<void(SpanRecorder &)> &Replay, Result &Res) {
  // Alternate which replay goes first so warm-up favours neither side, and
  // repeat until the untraced side has run for half a second.
  int64_t Off = 0, On = 0;
  for (int Round = 0; Round < 4 || Off < 500'000'000; ++Round) {
    for (bool Traced : {Round % 2 == 1, Round % 2 == 0}) {
      SpanRecorder Rec(Traced);
      const int64_t T0 = nowNs();
      Replay(Rec);
      (Traced ? On : Off) += nowNs() - T0;
    }
  }
  Res.add("trace.overhead_ratio",
          Off > 0 ? static_cast<double>(On - Off) / static_cast<double>(Off)
                  : 0,
          "ratio");
}

void bench::checkSameCounts(const LayerCounts &Entry,
                            const LayerCounts &Traced, Result &Res) {
  if (Entry.Moves != Traced.Moves ||
      Entry.SpilledRanges != Traced.SpilledRanges ||
      Entry.CodeInstrs != Traced.CodeInstrs ||
      Entry.SimIters != Traced.SimIters || Entry.SimCycles != Traced.SimCycles)
    Res.fail("traced counts differ from the entry point's");
}

void bench::printLayerDigest(const std::string &Workload,
                             const LayerCounts &Counts) {
  std::printf("layer counts %s: %016llx\n", Workload.c_str(),
              static_cast<unsigned long long>(Counts.digest()));
}

void bench::printDigest(const std::string &Workload,
                        const LayerCounts &Counts, uint64_t OutputsHash) {
  std::printf("determinism %s: ops=%lld moves=%lld spilled=%lld "
              "code_instrs=%lld sim_iters=%lld sim_cycles=%lld "
              "outputs=%016llx\n",
              Workload.c_str(), static_cast<long long>(Counts.Ops),
              static_cast<long long>(Counts.Moves),
              static_cast<long long>(Counts.SpilledRanges),
              static_cast<long long>(Counts.CodeInstrs),
              static_cast<long long>(Counts.SimIters),
              static_cast<long long>(Counts.SimCycles),
              static_cast<unsigned long long>(OutputsHash));
}
