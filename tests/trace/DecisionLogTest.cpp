//===- DecisionLogTest.cpp - Decision log vs the allocator's real choices -===//
///
/// The log must be a faithful transcript of the Fig. 8 greedy reduction,
/// not a reconstruction: one record per step, the chosen delta equal to
/// the minimum over the recorded bids, and budget snapshots that replay
/// exactly from the initial bounds. Checked structurally over a grid of
/// (example program, register file size) configurations.
///
//===----------------------------------------------------------------------===//

#include "trace/DecisionLog.h"

#include "alloc/InterAllocator.h"
#include "analysis/LiveRangeRenaming.h"
#include "trace/MetricsRegistry.h"
#include "workloads/ProgramGenerator.h"

#include "../common/TestUtils.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

using namespace npral;

namespace {

MultiThreadProgram loadExample(const std::string &File) {
  const std::string Path = std::string(NPRAL_EXAMPLES_ASM_DIR) + "/" + File;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  ErrorOr<MultiThreadProgram> MTP = parseAssembly(Buf.str());
  EXPECT_TRUE(MTP.ok()) << MTP.status().str();
  for (Program &T : MTP->Threads)
    T = renameLiveRanges(T);
  return MTP.take();
}

/// sum(PR) + max(SR): the quantity the Fig. 8 loop drives down to Nreg.
int requirementOf(const std::vector<int> &PR, const std::vector<int> &SR) {
  int Sum = 0, MaxSR = 0;
  for (int P : PR)
    Sum += P;
  for (int S : SR)
    MaxSR = std::max(MaxSR, S);
  return Sum + MaxSR;
}

/// Structural invariants that must hold for any program and any Nreg.
void checkLogInvariants(const MultiThreadProgram &MTP, int Nreg,
                        const AllocationDecisionLog &Log,
                        const InterThreadResult &R) {
  SCOPED_TRACE("Nreg=" + std::to_string(Nreg));
  EXPECT_EQ(Log.Nthd, MTP.getNumThreads());
  EXPECT_EQ(Log.Nreg, Nreg);
  EXPECT_EQ(Log.Success, R.Success);
  ASSERT_EQ(Log.InitialPR.size(), MTP.Threads.size());
  ASSERT_EQ(Log.InitialSR.size(), MTP.Threads.size());

  // Replay the budgets alongside the steps.
  std::vector<int> PR = Log.InitialPR;
  std::vector<int> SR = Log.InitialSR;
  int Index = 0;
  for (const ReductionStep &Step : Log.Reductions) {
    SCOPED_TRACE("step " + std::to_string(Step.StepIndex));
    // One record per step, in order.
    EXPECT_EQ(Step.StepIndex, ++Index);
    EXPECT_EQ(Step.RequirementBefore, requirementOf(PR, SR));
    EXPECT_GT(Step.RequirementBefore, Nreg);

    if (Step.Chosen == ReductionStep::ChoseSweepFallback) {
      // The sweep bypasses the bid market entirely.
      EXPECT_EQ(Step.ChosenDelta, 0);
    } else {
      // The chosen delta is the greedy argmin over every bid the
      // allocator actually priced this step.
      ASSERT_FALSE(Step.Bids.empty());
      int64_t MinDelta = Step.Bids.front().Delta;
      for (const ReductionBid &Bid : Step.Bids)
        MinDelta = std::min(MinDelta, Bid.Delta);
      EXPECT_EQ(Step.ChosenDelta, MinDelta);

      if (Step.Chosen == ReductionStep::ChosePR) {
        // The victim must be a PR bid at the winning price.
        ASSERT_GE(Step.VictimThread, 0);
        ASSERT_LT(Step.VictimThread, Log.Nthd);
        bool Found = false;
        for (const ReductionBid &Bid : Step.Bids)
          Found |= Bid.K == ReductionBid::ReducePR &&
                   Bid.Thread == Step.VictimThread &&
                   Bid.Delta == Step.ChosenDelta;
        EXPECT_TRUE(Found);
        EXPECT_EQ(Step.PRAfter[static_cast<size_t>(Step.VictimThread)],
                  PR[static_cast<size_t>(Step.VictimThread)] - 1);
      } else { // ChoseSharedRegs
        EXPECT_EQ(Step.VictimThread, -1);
        // The collective SR bid must exist, at the winning price, and it
        // only wins on a strict improvement over every PR bid.
        bool Found = false;
        for (const ReductionBid &Bid : Step.Bids) {
          if (Bid.K == ReductionBid::ReduceSharedRegs) {
            Found = true;
            EXPECT_EQ(Bid.Delta, Step.ChosenDelta);
          } else {
            EXPECT_GT(Bid.Delta, Step.ChosenDelta);
          }
        }
        EXPECT_TRUE(Found);
      }
      // Non-sweep steps shed exactly one register of requirement.
      EXPECT_EQ(Step.RequirementAfter, Step.RequirementBefore - 1);
    }

    ASSERT_EQ(Step.PRAfter.size(), PR.size());
    ASSERT_EQ(Step.SRAfter.size(), SR.size());
    EXPECT_EQ(Step.RequirementAfter,
              requirementOf(Step.PRAfter, Step.SRAfter));
    PR = Step.PRAfter;
    SR = Step.SRAfter;
  }

  if (R.Success) {
    // The final snapshot must match what the allocator actually returned.
    ASSERT_EQ(Log.FinalPR.size(), R.Threads.size());
    for (size_t T = 0; T < R.Threads.size(); ++T) {
      EXPECT_EQ(Log.FinalPR[T], R.Threads[T].PR);
      EXPECT_EQ(Log.FinalSR[T], R.Threads[T].SR);
    }
    EXPECT_EQ(Log.SGR, R.SGR);
    EXPECT_EQ(Log.RegistersUsed, R.RegistersUsed);
    EXPECT_EQ(Log.TotalWeightedCost, R.TotalWeightedCost);
  } else {
    EXPECT_EQ(Log.FailReason, R.FailReason);
  }

  for (const IntraEvent &E : Log.IntraEvents) {
    EXPECT_GE(E.Thread, 0);
    EXPECT_LT(E.Thread, Log.Nthd);
    EXPECT_FALSE(E.Detail.empty());
  }
}

/// Run with and without the log; results must be identical (the log is an
/// observer, never an actor) and the log must satisfy every invariant.
void runGrid(const std::string &File, const std::vector<int> &Nregs) {
  const MultiThreadProgram MTP = loadExample(File);
  for (int Nreg : Nregs) {
    SCOPED_TRACE(File + " Nreg=" + std::to_string(Nreg));
    AllocationDecisionLog Log;
    InterThreadResult WithLog =
        allocateInterThread(MTP, Nreg, {}, {}, &Log);
    InterThreadResult Plain = allocateInterThread(MTP, Nreg);
    EXPECT_EQ(WithLog.Success, Plain.Success);
    if (WithLog.Success && Plain.Success) {
      ASSERT_EQ(WithLog.Threads.size(), Plain.Threads.size());
      for (size_t T = 0; T < Plain.Threads.size(); ++T) {
        EXPECT_EQ(WithLog.Threads[T].PR, Plain.Threads[T].PR);
        EXPECT_EQ(WithLog.Threads[T].SR, Plain.Threads[T].SR);
        EXPECT_EQ(WithLog.Threads[T].MoveCost, Plain.Threads[T].MoveCost);
      }
      EXPECT_EQ(WithLog.SGR, Plain.SGR);
      EXPECT_EQ(WithLog.RegistersUsed, Plain.RegistersUsed);
    }
    checkLogInvariants(MTP, Nreg, Log, WithLog);
  }
}

} // namespace

TEST(DecisionLogTest, Fig3PaperGrid) {
  runGrid("fig3_paper.s", {2, 3, 4, 8, 128});
}

TEST(DecisionLogTest, TwoThreadsGrid) {
  runGrid("two_threads.s", {3, 4, 5, 6, 8, 128});
}

TEST(DecisionLogTest, ModularKernelGrid) {
  runGrid("modular_kernel.s", {2, 3, 4, 6, 128});
}

TEST(DecisionLogTest, BadAllocGrid) {
  runGrid("bad_alloc.s", {2, 3, 4, 6, 8, 128});
}

TEST(DecisionLogTest, ReductionStepsAreRecordedWhenConstrained) {
  // fig3_paper at Nreg=2 is known to need at least one reduction step
  // (the move-free bounds need 3 registers).
  const MultiThreadProgram MTP = loadExample("fig3_paper.s");
  AllocationDecisionLog Log;
  InterThreadResult R = allocateInterThread(MTP, 2, {}, {}, &Log);
  ASSERT_TRUE(R.Success) << R.FailReason;
  EXPECT_FALSE(Log.Reductions.empty());
  EXPECT_EQ(Log.Reductions.front().RequirementBefore,
            requirementOf(Log.InitialPR, Log.InitialSR));
}

TEST(DecisionLogTest, RenderExplainIsDeterministic) {
  const MultiThreadProgram MTP = loadExample("fig3_paper.s");
  std::string First;
  for (int Round = 0; Round < 2; ++Round) {
    AllocationDecisionLog Log;
    allocateInterThread(MTP, 2, {}, {}, &Log);
    std::ostringstream OS;
    Log.renderExplain(OS);
    if (Round == 0)
      First = OS.str();
    else
      EXPECT_EQ(OS.str(), First);
  }
  EXPECT_NE(First.find("allocation explain: 2 threads, Nreg=2"),
            std::string::npos);
  EXPECT_NE(First.find("step 1:"), std::string::npos);
  EXPECT_NE(First.find("final:"), std::string::npos);
}

TEST(DecisionLogTest, FailureIsLogged) {
  // One thread alone needing more registers than exist: the allocator
  // must fail and the log must say so.
  const MultiThreadProgram MTP = loadExample("two_threads.s");
  AllocationDecisionLog Log;
  InterThreadResult R = allocateInterThread(MTP, 1, {}, {}, &Log);
  ASSERT_FALSE(R.Success);
  EXPECT_FALSE(Log.Success);
  EXPECT_EQ(Log.FailReason, R.FailReason);
  std::ostringstream OS;
  Log.renderExplain(OS);
  EXPECT_NE(OS.str().find("failed:"), std::string::npos);
}

namespace {

/// A small generated thread with frequent context switches, so that its
/// tight budgets need greedy splitting.
Program splitHeavyThread(uint64_t Seed) {
  GeneratorConfig Config;
  Config.TargetInstructions = 40;
  Config.CtxRatePerMille = 280;
  Config.NumLongLived = 6;
  Config.MaxDepth = 2;
  return generateRandomProgram(Seed, Config);
}

/// Greedy stopped early and fragments won: the log holds exactly the
/// \p Splits split events greedy performed, then the usual recolor and
/// fragment-fallback lines, and no other event kind.
void expectSplitsThenFragment(const AllocationDecisionLog &Log, size_t Splits,
                              int PR, int SR) {
  ASSERT_EQ(Log.IntraEvents.size(), Splits + 2);
  for (size_t I = 0; I < Splits; ++I) {
    const IntraEvent &E = Log.IntraEvents[I];
    EXPECT_TRUE(E.K == IntraEvent::ExcludeNSR || E.K == IntraEvent::BlockSplit)
        << "event " << I << ": " << E.Detail;
    EXPECT_EQ(E.PR, PR);
    EXPECT_EQ(E.SR, SR);
  }
  const IntraEvent &Recolor = Log.IntraEvents[Splits];
  EXPECT_EQ(Recolor.K, IntraEvent::Recolor);
  EXPECT_EQ(Recolor.Detail.rfind("strategy=fragment ", 0), 0u)
      << Recolor.Detail;
  EXPECT_EQ(Log.IntraEvents.back().K, IntraEvent::FragmentFallback);
}

struct GreedyWork {
  int64_t Reanalyses, Prunes, Stalls;
};

GreedyWork greedyWork() {
  const MetricsRegistry &M = MetricsRegistry::global();
  return {M.counterValue("alloc.greedy_reanalyses"),
          M.counterValue("alloc.greedy_prunes"),
          M.counterValue("alloc.greedy_stalls")};
}

} // namespace

TEST(DecisionLogTest, PrunedGreedyAttemptLogsOnlyItsSplits) {
  // After its first split greedy's moves already exceed the fragment
  // allocator's, so the bound stops it before the next re-analysis and
  // fragments win.
  IntraThreadAllocator Intra(splitHeavyThread(29));
  AllocationDecisionLog Log;
  Intra.setDecisionLog(&Log, 0);
  const GreedyWork Before = greedyWork();
  const IntraResult &R = Intra.allocate(8, 1);
  const GreedyWork After = greedyWork();
  ASSERT_TRUE(R.Feasible) << R.FailReason;
  EXPECT_EQ(R.Strategy, "fragment");
  EXPECT_EQ(After.Prunes - Before.Prunes, 1);
  EXPECT_EQ(After.Stalls, Before.Stalls);
  const int64_t Reanalyses = After.Reanalyses - Before.Reanalyses;
  ASSERT_GT(Reanalyses, 0);
  // Every re-analysis was followed by one split; the prune came before
  // the next re-analysis.
  expectSplitsThenFragment(Log, static_cast<size_t>(Reanalyses), 8, 1);
}

TEST(DecisionLogTest, StalledGreedyAttemptLogsOnlyItsSplits) {
  // An entry-live boundary node is excluded from the entry NSR, and the
  // next coloring fails at it again with the same NSR chosen: greedy stops
  // instead of repeating the exclusion, and fragments win.
  IntraThreadAllocator Intra(splitHeavyThread(0));
  AllocationDecisionLog Log;
  Intra.setDecisionLog(&Log, 0);
  const GreedyWork Before = greedyWork();
  const IntraResult &R = Intra.allocate(7, 1);
  const GreedyWork After = greedyWork();
  ASSERT_TRUE(R.Feasible) << R.FailReason;
  EXPECT_EQ(R.Strategy, "fragment");
  EXPECT_EQ(After.Stalls - Before.Stalls, 1);
  EXPECT_EQ(After.Prunes, Before.Prunes);
  const int64_t Reanalyses = After.Reanalyses - Before.Reanalyses;
  ASSERT_GT(Reanalyses, 1);
  // The last re-analysis chose the repeated exclusion, which was neither
  // performed nor logged.
  expectSplitsThenFragment(Log, static_cast<size_t>(Reanalyses) - 1, 7, 1);
  EXPECT_EQ(Log.IntraEvents[static_cast<size_t>(Reanalyses) - 2].K,
            IntraEvent::ExcludeNSR);
}
