//===- Layers.h - Layer-by-layer replay of the allocation path --*- C++ -*-===//
///
/// \file
/// The traced runs replay what the entry points do, one public layer
/// function at a time, so each call gets its own span: rename, liveness,
/// NSRs, the analysis bundle, the Fig. 8 allocator (with a decision log),
/// the spill fallback, the safety verifier, the translation validator and
/// the simulator. The same code with a disabled SpanRecorder is the
/// untraced reference for the tracing overhead, and the check pass of the
/// timed runs.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_BENCH_LAYERS_H
#define NPRAL_BENCH_LAYERS_H

#include "Bench.h"

#include "ir/Program.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace npral {
namespace bench {

/// Work counts of the layers; all sums, so merging per-thread copies gives
/// the same totals in any order.
struct LayerCounts {
  int64_t Ops = 0;
  int64_t Instrs = 0;     ///< Renamed input instructions.
  int64_t LiveRanges = 0; ///< Referenced live ranges of the inputs.
  int64_t ReductionSteps = 0;
  int64_t RecolorProbes = 0;
  int64_t NSRExclusions = 0;
  int64_t BlockSplits = 0;
  int64_t FragmentFallbacks = 0;
  int64_t Moves = 0;
  int64_t SpillAttempts = 0;
  int64_t SpillMemOps = 0;
  int64_t SpilledRanges = 0;
  int64_t InstrsMatched = 0;
  int64_t CodeInstrs = 0; ///< Instructions of the generated code.
  int64_t RoundTrips = 0;
  int64_t RoundTripsOk = 0;
  // Simulator totals over every run.
  int64_t SimRuns = 0;
  int64_t SimNs = 0; ///< Thread CPU time of timeSimulation's timed runs.
  int64_t SimInstrs = 0;
  int64_t SimCycles = 0;
  int64_t SimIdle = 0;
  int64_t SimCtx = 0;
  int64_t SimIters = 0;
  // Grid totals.
  int64_t StallCycles = 0;
  int64_t Messages = 0;

  void merge(const LayerCounts &O);
  /// Deterministic digest of every count (timings excluded).
  uint64_t digest() const;
};

/// Outcome of one replayed allocation.
struct Allocated {
  bool Ok = false;
  std::string Why;
  MultiThreadProgram Renamed;
  MultiThreadProgram Physical;
  int Moves = 0;
  int Registers = 0;
  int SpilledRanges = 0;
};

/// Span context of the calling worker.
struct SpanCtx {
  SpanRecorder &Rec;
  int64_t Op = 0;
  int Tid = 0;
};

/// Rename, analyse, allocate (falling back to spilling when \p AllowSpill
/// and the budget is infeasible), verify and validate \p Virtual into
/// \p Nreg registers, one span per layer call.
Allocated replayAllocation(const MultiThreadProgram &Virtual, int Nreg,
                           bool AllowSpill, SpanCtx C, LayerCounts &Counts);

/// Print \p MTP thread by thread and parse each back; counts successes.
void replayRoundTrip(const MultiThreadProgram &MTP, SpanCtx C,
                     LayerCounts &Counts);

/// One Simulator::run under a span, folded into \p Counts.
SimResult replaySimulation(Simulator &Sim, SpanCtx C, LayerCounts &Counts);

/// Simulator host speed on \p MTP: one untimed run warms the caches the
/// simulator reads (the program is shared; every fresh simulator first
/// zeroes its 4 MiB memory), then the thread CPU time of a second run on
/// another fresh simulator and its instructions are added to Counts.SimNs
/// and Counts.SimInstrs. \p Prepare loads each simulator's inputs, the
/// timed one's just before its run. Returns whether the timed run
/// completed.
bool timeSimulation(const MultiThreadProgram &MTP, const SimConfig &Config,
                    const std::function<void(Simulator &)> &Prepare,
                    LayerCounts &Counts);

/// FNV-1a of the printed physical threads (the allocation goldens' form).
uint64_t physicalHash(const MultiThreadProgram &Physical);
int64_t instructionCount(const MultiThreadProgram &MTP);

/// Replay ops [0, N) on \p Workers threads as \p Fn(Index, Op, Tid, First):
/// one round whose counts and checks count (First), then more rounds until
/// \p Deadline that only add span timings. Op ids are unique over rounds;
/// Tid is 1-based.
void replayRounds(
    int N, int Workers, int64_t Deadline,
    const std::function<void(int, int64_t, int, bool)> &Fn);

/// The entry point's own work on the inputs a traced run replays, which
/// trace.accounted_ratio and trace.tail_alloc_spill_share set the replay's
/// spans against.
struct EntryWork {
  /// Median milliseconds the entry point took on each replayed input; op
  /// Op of the replay is input (Op - 1) % Ms.size(), as replayRounds
  /// numbers them.
  std::vector<double> Ms;
  /// Layer calls of the replay that the entry point does not make, beyond
  /// those no entry point makes (the separately timed liveness and NSRs,
  /// the plain allocation the spill fallback repeats, and the checks).
  std::vector<std::string> NotInEntry;
  /// The span whose time is sim.run_ms.
  std::string SimSpan = "Simulator::run";
};

/// Add the per-layer metrics derived from the spans and counts of a traced
/// replay to \p Res. *_ms metrics are mean milliseconds per op span.
void addLayerMetrics(const SpanRecorder &Rec, const LayerCounts &Counts,
                     const EntryWork &Entry, Result &Res);

/// Tracing overhead: run \p Replay(Rec) with a disabled and an enabled
/// recorder, interleaved, at least four times each and for at least half a
/// second untraced, and report the relative difference of the summed wall
/// times as trace.overhead_ratio.
void addTraceOverhead(const std::function<void(SpanRecorder &)> &Replay,
                      Result &Res);

/// The counts both runs of a workload produce (moves, spilled ranges, code
/// size, simulated iterations and cycles) must be identical.
void checkSameCounts(const LayerCounts &Entry, const LayerCounts &Traced,
                     Result &Res);

/// Print the determinism digest line (same seed => same line).
void printDigest(const std::string &Workload, const LayerCounts &Counts,
                 uint64_t OutputsHash);

/// Print the digest of every count of a layer replay (decision log, spill,
/// simulator and grid counts included); same seed => same line.
void printLayerDigest(const std::string &Workload, const LayerCounts &Counts);

} // namespace bench
} // namespace npral

#endif // NPRAL_BENCH_LAYERS_H
