//===- CliTest.cpp - npralc command-line golden tests ---------------------===//
//
// Runs the built `npralc` binary from the source root. Each file in
// tests/cli/golden/ is one case: one or more `$ npralc <args>` lines (all
// but the last set up an input and must exit 0), then `exit <N>` and the
// last command's stdout verbatim. Exit code and stdout are pinned byte for
// byte; stderr is not, since it carries timings and progress lines. Files
// a case writes go to a per-process temporary directory, spelled `@TMP@` in
// arguments and in the goldens.
//
// Re-record the goldens (only for a deliberate output change) with
//   NPRAL_CLI_RECORD=1 ctest --test-dir build -R cli_test
//
//===----------------------------------------------------------------------===//

#include "gtest/gtest.h"

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const std::string GoldenDir = NPRAL_SOURCE_DIR "/tests/cli/golden";

const std::string &tmpDir() {
  static const std::string Dir = [] {
    std::string Template =
        (fs::temp_directory_path() / "npralc-cli-XXXXXX").string();
    if (!mkdtemp(Template.data()))
      ADD_FAILURE() << "mkdtemp failed";
    return Template;
  }();
  return Dir;
}

class RemoveTmpDir : public ::testing::Environment {
  void TearDown() override { fs::remove_all(tmpDir()); }
};
const auto *const TmpDirCleanup =
    ::testing::AddGlobalTestEnvironment(new RemoveTmpDir);

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t Pos = S.find(From); Pos != std::string::npos;
       Pos = S.find(From, Pos + To.size()))
    S.replace(Pos, From.size(), To);
  return S;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

struct RunResult {
  int Exit = -1;
  std::string Out;
  std::string Err;
};

/// Run `npralc Args` (space-separated) from the source root, with \p Prefix
/// (e.g. a `timeout` wrapper) in front of the binary.
RunResult runNpralc(const std::string &Args, const std::string &Prefix = "") {
  const std::string ErrPath = tmpDir() + "/stderr.txt";
  std::string Cmd =
      "cd '" NPRAL_SOURCE_DIR "' && " + Prefix + "'" NPRALC_PATH "'";
  std::istringstream Words(replaceAll(Args, "@TMP@", tmpDir()));
  for (std::string W; Words >> W;)
    Cmd += " '" + W + "'";
  Cmd += " 2>'" + ErrPath + "'";
  RunResult R;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed: " << Cmd;
    return R;
  }
  char Buf[4096];
  for (size_t N; (N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0;)
    R.Out.append(Buf, N);
  const int Status = pclose(Pipe);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  R.Out = replaceAll(R.Out, tmpDir(), "@TMP@");
  R.Err = readFile(ErrPath);
  return R;
}

std::vector<std::string> goldenNames() {
  std::vector<std::string> Names;
  for (const auto &E : fs::directory_iterator(GoldenDir))
    Names.push_back(E.path().stem().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// `exit <N>` and the stdout of the last command, as the goldens hold them.
std::string observed(const RunResult &R) {
  return "exit " + std::to_string(R.Exit) + "\n" + R.Out;
}

class CliGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CliGoldenTest, StdoutAndExitMatchGolden) {
  const std::string Path = GoldenDir + "/" + GetParam() + ".txt";
  const std::string Text = readFile(Path);
  std::vector<std::string> Args;
  size_t Pos = 0;
  while (Text.compare(Pos, 8, "$ npralc") == 0) {
    const size_t End = Text.find('\n', Pos);
    ASSERT_NE(End, std::string::npos) << Path;
    Args.push_back(Text.substr(Pos + 8, End - Pos - 8));
    Pos = End + 1;
  }
  ASSERT_FALSE(Args.empty()) << Path << ": no `$ npralc` line";
  for (size_t I = 0; I + 1 < Args.size(); ++I) {
    RunResult Setup = runNpralc(Args[I]);
    ASSERT_EQ(Setup.Exit, 0) << Args[I] << "\n" << Setup.Err;
  }
  RunResult R = runNpralc(Args.back());
  if (std::getenv("NPRAL_CLI_RECORD")) {
    std::ofstream(Path, std::ios::binary)
        << Text.substr(0, Pos) << observed(R);
    return;
  }
  EXPECT_EQ(observed(R), Text.substr(Pos)) << "stderr:\n" << R.Err;
}

INSTANTIATE_TEST_SUITE_P(Golden, CliGoldenTest,
                         ::testing::ValuesIn(goldenNames()),
                         [](const auto &I) { return I.param; });

// Flags and positionals may come in any order: a reordering must match the
// golden of the canonical spelling.
TEST(CliReorderTest, MatchesCanonicalGolden) {
  const std::pair<const char *, const char *> Cases[] = {
      {"alloc_nreg16", "alloc -nreg 16 examples/asm/two_threads.s"},
      {"sra_nreg", "sra -nreg 64 -nthd 8 examples/asm/modular_kernel.s"},
      {"lint_physical_json",
       "lint --json --physical examples/asm/bad_alloc.s"},
      {"grid_s1_json", "grid --json --engines 1 s1"},
  };
  for (const auto &[Golden, Args] : Cases) {
    const std::string Text = readFile(GoldenDir + "/" + Golden + ".txt");
    const size_t Exit = Text.find("\nexit ");
    ASSERT_NE(Exit, std::string::npos) << Golden;
    EXPECT_EQ(observed(runNpralc(Args)), Text.substr(Exit + 1)) << Args;
  }
}

// Malformed or foreign input exits 2, names the offending flag or argument
// on stderr, prints nothing on stdout, and does no work: a serve daemon
// must not bind its socket.
TEST(CliMalformedTest, ExitsTwoNamingTheProblem) {
  const std::pair<const char *, const char *> Cases[] = {
      {"alloc examples/asm/two_threads.s -nreg 12x", "'12x'"},
      {"alloc examples/asm/two_threads.s -nreg abc", "-nreg"},
      {"alloc examples/asm/two_threads.s -nreg", "-nreg"},
      {"batch examples/asm/two_threads.s --jobs abc", "--jobs"},
      {"serve --socket @TMP@/s.sock --max-request-bytes -1",
       "--max-request-bytes"},
      {"serve --socket @TMP@/s.sock --cache-bytes -1", "--cache-bytes"},
      {"grid s1 --engines 17", "--engines"},
      {"analyze examples/asm/two_threads.s --explain", "--explain"},
      {"alloc examples/asm/two_threads.s --nreg 16", "--nreg"},
      {"batch examples/asm/two_threads.s -jobs 2", "'-jobs'"},
      {"trace-validate t.json extra", "'extra'"},
      {"analyze", "file.s"},
      {"allocate examples/asm/two_threads.s", "'allocate'"},
  };
  for (const auto &[Args, Names] : Cases) {
    // A serve invocation the parser wrongly accepted would block forever.
    RunResult R = runNpralc(Args, "timeout 10 ");
    EXPECT_EQ(R.Exit, 2) << Args << "\n" << R.Err;
    EXPECT_EQ(R.Out, "") << Args;
    EXPECT_NE(R.Err.find(Names), std::string::npos) << Args << "\n" << R.Err;
    EXPECT_FALSE(fs::exists(tmpDir() + "/s.sock")) << Args;
  }
}

TEST(CliUsageTest, NoArgumentsPrintsGeneratedUsage) {
  RunResult R = runNpralc("");
  EXPECT_EQ(R.Exit, 2);
  for (const char *Name :
       {"analyze", "alloc", "run", "baseline", "sra", "grid", "lint",
        "verify", "profile", "batch", "serve", "client", "trace-validate",
        "report", "--trace-out", "--metrics"})
    EXPECT_NE(R.Err.find(Name), std::string::npos) << Name << "\n" << R.Err;
}

} // namespace
