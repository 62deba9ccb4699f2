//===- ExecutionProfile.h - .npprof execution profiles ----------*- C++ -*-===//
///
/// \file
/// The on-disk and in-memory representation of a simulated execution
/// profile: per-thread basic-block execution counts and per-CSB switch
/// counts, collected by ProfileCollector and consumed by the allocators
/// through CostModel.
///
/// Profiles serialize to a line-oriented text format (`.npprof`):
///
/// \code
///   npprof 1
///   program <name>
///   thread <index> <code-hash-hex> <name>
///   block <block-id> <count>
///   csb <block-id> <instr-index> <count>
///   end
/// \endcode
///
/// `block` and `csb` lines belong to the most recent `thread` line and are
/// emitted in ascending key order, so print(parse(T)) == T for any valid T
/// (serialization is a fixed point). The code hash is the FNV-1a hash of
/// the printed thread program — the same hash the analysis cache uses — so
/// a profile can be matched against a program by content, not by name.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_PROFILE_EXECUTIONPROFILE_H
#define NPRAL_PROFILE_EXECUTIONPROFILE_H

#include "ir/Program.h"
#include "profile/CostModel.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace npral {

/// Execution counts for one thread of a MultiThreadProgram.
struct ThreadProfile {
  int Index = 0;
  std::string Name;
  /// FNV-1a hash of the printed thread program the counts were collected
  /// on. Consumers refuse to apply a profile to a thread whose code hash
  /// differs — block IDs would not line up.
  uint64_t CodeHash = 0;
  /// Times each basic block was entered. Blocks never executed may be
  /// absent (equivalent to count 0).
  std::map<int, int64_t> BlockCounts;
  /// Times each context-switch point (block, instruction index) executed.
  std::map<std::pair<int, int>, int64_t> SwitchCounts;

  int64_t blockCount(int Block) const {
    auto It = BlockCounts.find(Block);
    return It == BlockCounts.end() ? 0 : It->second;
  }
};

/// A full execution profile of one MultiThreadProgram run (or the merge of
/// several runs of the same program).
class ExecutionProfile {
public:
  std::string ProgramName;
  std::vector<ThreadProfile> Threads;

  int getNumThreads() const { return static_cast<int>(Threads.size()); }

  /// Serialize to the canonical `.npprof` text form. Byte-stable: maps are
  /// emitted in key order, so printing a parsed profile reproduces the
  /// input exactly.
  std::string print() const;

  /// Serialize to JSON (for tooling; not parsed back).
  std::string printJSON() const;

  /// Parse the text form. Returns std::nullopt and sets \p Error on
  /// malformed input.
  static std::optional<ExecutionProfile> parse(std::string_view Text,
                                               std::string &Error);

  /// Accumulate \p Other into this profile. Both must describe the same
  /// program: same thread count and, per thread, same name and code hash.
  /// Counts are summed, so merging the profiles of two runs equals the
  /// profile of one run that executed both workloads back to back.
  /// Returns false and sets \p Error on shape mismatch.
  bool merge(const ExecutionProfile &Other, std::string &Error);

  /// FNV-1a hash of the printed form; folded into analysis-cache keys so
  /// cached bundles are keyed by (program, profile) pairs.
  uint64_t contentHash() const;

  /// Find the thread profile whose code hash is \p CodeHash (nullptr when
  /// absent). Batch mode uses this to match profiles to programs by
  /// content rather than position.
  const ThreadProfile *findByCodeHash(uint64_t CodeHash) const;

  /// Build the cost model for thread \p Thread: block weight = execution
  /// count (0 for never-executed blocks). Out-of-range \p Thread yields
  /// the unit model.
  CostModel costModel(int Thread, int NumBlocks) const;
};

/// The cost model for thread \p T, resolved in the order every driver
/// uses: the thread of \p Profile (may be null) whose code hash matches T's
/// printed text, else the static estimator when \p StaticPGO is set, else
/// the unit model. \p Profiled, when given, is set to whether the profile
/// matched.
CostModel resolveCostModel(const Program &T, const ExecutionProfile *Profile,
                           bool StaticPGO, bool *Profiled = nullptr);

} // namespace npral

#endif // NPRAL_PROFILE_EXECUTIONPROFILE_H
