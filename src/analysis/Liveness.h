//===- Liveness.h - Dataflow liveness ---------------------------*- C++ -*-===//
///
/// \file
/// Classic backward iterative liveness over the CFG, with per-instruction
/// live-out sets. In NPRAL a live range is a virtual register (the paper
/// assumes one live range per variable), so liveness sets are register sets.
///
/// Transfer-register semantics: a `load`'s destination is modelled like any
/// other definition for liveness; the context-switch-specific rule (the
/// definition is not live *across* the load's own CSB) falls out naturally
/// because "live across the CSB of instruction i" is LiveOut(i) minus
/// Defs(i) — see NSR.h.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_ANALYSIS_LIVENESS_H
#define NPRAL_ANALYSIS_LIVENESS_H

#include "ir/Program.h"
#include "support/BitVector.h"
#include "support/Status.h"

#include <vector>

namespace npral {

/// Result of liveness analysis for one Program.
///
/// Per-instruction live-out sets live in one flat word pool (instruction
/// slots laid out block-major), so computing them is a single backward
/// sweep writing words — no per-instruction heap BitVector — and reading
/// them hands out non-owning BitSpan views.
class LivenessInfo {
public:
  /// Live registers at entry of block \p B.
  const BitVector &blockLiveIn(int B) const {
    return BlockLiveIn[static_cast<size_t>(B)];
  }
  /// Live registers at exit of block \p B.
  const BitVector &blockLiveOut(int B) const {
    return BlockLiveOut[static_cast<size_t>(B)];
  }
  /// Live registers just after instruction \p I of block \p B. The view
  /// borrows the analysis result; copy into a BitVector to keep it longer.
  BitSpan instrLiveOut(int B, int I) const {
    return {InstrPool.data() +
                static_cast<size_t>(InstrBase[static_cast<size_t>(B)] + I) *
                    static_cast<size_t>(WordsPerSet),
            NumRegs};
  }
  /// Live registers just before instruction \p I of block \p B (computed).
  BitVector instrLiveIn(const Program &P, int B, int I) const;

  /// Maximum register pressure over all program points: the paper's RegPmax
  /// (the lower bound MinR). Counts a definition as occupying its register
  /// at the defining instruction even when immediately dead.
  int getRegPmax() const { return RegPmax; }

  /// True if register \p R is live at any point or referenced at all.
  bool isEverReferenced(Reg R) const {
    return EverReferenced[static_cast<size_t>(R)];
  }

  friend LivenessInfo computeLiveness(const Program &P);

private:
  std::vector<BitVector> BlockLiveIn;
  std::vector<BitVector> BlockLiveOut;
  /// Flat live-out pool: instruction (B, I) occupies WordsPerSet words at
  /// index (InstrBase[B] + I) * WordsPerSet.
  std::vector<uint64_t> InstrPool;
  std::vector<int32_t> InstrBase; ///< Per-block first instruction slot.
  int WordsPerSet = 0;
  int NumRegs = 0;
  std::vector<char> EverReferenced;
  int RegPmax = 0;
};

/// Run the analysis. The program must verify.
LivenessInfo computeLiveness(const Program &P);

/// Check that no register is used before being defined on some path: the
/// entry block's live-in must be covered by Program::EntryLiveRegs.
Status checkNoUseOfUndef(const Program &P, const LivenessInfo &LI);

} // namespace npral

#endif // NPRAL_ANALYSIS_LIVENESS_H
