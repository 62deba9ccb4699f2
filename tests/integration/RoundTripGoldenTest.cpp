//===- RoundTripGoldenTest.cpp - Parser/printer fixed-point goldens -------===//
//
// Guards the invariants the analysis cache's content hashing rests on: the
// printer's output is byte-stable, print -> parse is a fixed point, and
// parsing the same text twice yields the same flat content hash (the cache
// key is computed from the IR a job actually analyses, so equal input text
// must mean equal keys). The hash may legitimately differ across a
// print -> parse round trip: function expansion leaves fall-through edges
// to non-adjacent blocks, which the printer materialises as explicit `br`
// instructions, and the two forms are different analysis inputs (different
// instruction counts index different per-instruction live sets). One round
// trip normalises; after that the hash is a fixed point too.
//
//===----------------------------------------------------------------------===//

#include "FuzzCaseFactory.h"

#include "asmparse/AsmParser.h"
#include "driver/AnalysisCache.h"
#include "ir/IRPrinter.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace npral;

namespace {

std::vector<std::string> collectFixtures() {
  std::vector<std::string> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(NPRAL_EXAMPLES_ASM_DIR))
    if (Entry.path().extension() == ".s")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

} // namespace

class RoundTripGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripGoldenTest, PrintParseFixedPoint) {
  const std::string Path = GetParam();
  ErrorOr<MultiThreadProgram> First = parseAssembly(readFile(Path));
  ASSERT_TRUE(First.ok()) << Path << ": " << First.status().message();

  for (const Program &P : (*First).Threads) {
    const std::string Printed = programToString(P);
    // Byte stability: printing the same program twice is identical.
    EXPECT_EQ(Printed, programToString(P)) << Path << " thread " << P.Name;

    ErrorOr<Program> Second = parseSingleProgram(Printed);
    ASSERT_TRUE(Second.ok())
        << Path << " thread " << P.Name
        << ": printed form does not reparse: " << Second.status().message()
        << "\n" << Printed;
    // Fixed point: one print normalises; further round trips are identity.
    EXPECT_EQ(programToString((*Second)), Printed)
        << Path << " thread " << P.Name;
    // Equal text parses to equal content: two jobs reading the same file
    // derive the same cache key.
    ErrorOr<Program> SecondAgain = parseSingleProgram(Printed);
    ASSERT_TRUE(SecondAgain.ok()) << Path << " thread " << P.Name;
    EXPECT_EQ(hashProgramContent((*SecondAgain)), hashProgramContent((*Second)))
        << Path << " thread " << P.Name;
    // After the normalising round trip the content hash is a fixed point.
    ErrorOr<Program> Third = parseSingleProgram(programToString((*Second)));
    ASSERT_TRUE(Third.ok()) << Path << " thread " << P.Name;
    EXPECT_EQ(hashProgramContent((*Third)), hashProgramContent((*Second)))
        << Path << " thread " << P.Name;
  }
}

TEST_P(RoundTripGoldenTest, WholeFileReassembles) {
  const std::string Path = GetParam();
  ErrorOr<MultiThreadProgram> First = parseAssembly(readFile(Path));
  ASSERT_TRUE(First.ok()) << Path << ": " << First.status().message();

  // Concatenate every thread's printed form and reparse the whole file.
  std::ostringstream Whole;
  for (const Program &P : (*First).Threads)
    printProgram(Whole, P);
  ErrorOr<MultiThreadProgram> Again = parseAssembly(Whole.str());
  ASSERT_TRUE(Again.ok()) << Path << ": " << Again.status().message();
  ASSERT_EQ((*Again).getNumThreads(),
            (*First).getNumThreads());
  for (size_t T = 0; T < (*First).Threads.size(); ++T)
    EXPECT_EQ(programToString((*Again).Threads[T]),
              programToString((*First).Threads[T]))
        << Path << " thread " << T;
}

TEST(RoundTripGoldenCorpus, FindsAllFixtures) {
  // Keep the glob honest: the shipped corpus has at least these fixtures.
  EXPECT_GE(collectFixtures().size(), 5u);
}

TEST(RoundTripGoldenCorpus, FuzzCasePrintParseFixedPoint) {
  // Generator output may end a block in a conditional branch that falls
  // through to a non-adjacent block; the printer adds the `br`, and the
  // first parse splits it off into a block of its own. So the first parse
  // must succeed, and the fixed point holds from its print on.
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    fuzzcase::FuzzCase C = fuzzcase::makeCase(Seed);
    for (const MultiThreadProgram *MTP : {&C.Virtual, &C.Renamed})
      for (const Program &P : MTP->Threads) {
        ErrorOr<Program> First = parseSingleProgram(programToString(P));
        ASSERT_TRUE(First.ok()) << "seed " << Seed << " thread " << P.Name
                                << ": " << First.status().message();
        const std::string Printed = programToString(*First);
        ErrorOr<Program> Second = parseSingleProgram(Printed);
        ASSERT_TRUE(Second.ok()) << "seed " << Seed << " thread " << P.Name
                                 << ": " << Second.status().message();
        EXPECT_EQ(programToString(*Second), Printed)
            << "seed " << Seed << " thread " << P.Name;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(ExamplesAsm, RoundTripGoldenTest,
                         ::testing::ValuesIn(collectFixtures()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           std::string Name =
                               std::filesystem::path(I.param).stem().string();
                           std::replace_if(
                               Name.begin(), Name.end(),
                               [](char C) { return !std::isalnum(C); }, '_');
                           return Name;
                         });
