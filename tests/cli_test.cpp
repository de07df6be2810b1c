// Usage errors of the `ting` command line. Each case runs the built binary
// in an empty directory and must exit 2 with an `error:` line naming the
// offending flag or argument, before any work: the directory stays empty,
// so no --out file (or default-named artifact) was written.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

namespace {

struct UsageCase {
  const char* name;
  std::vector<std::string> args;
  const char* named;  ///< text the error line must contain
};

const std::string kMatrix = TING_SOURCE_DIR "/ting_50node_matrix.csv";

const UsageCase kCases[] = {
    {"unknown_flag",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10",
      "--bogus-flag", "3", "--out", "out.csv"},
     "--bogus-flag"},
    {"misspelled_flag",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10", "--shard",
      "3", "--out", "out.csv"},
     "--shard"},
    {"value_missing_at_end",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10", "--out"},
     "--out"},
    {"value_is_the_next_flag",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "--out",
      "out.csv"},
     "--samples"},
    {"int_with_trailing_junk",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "12x", "--out",
      "out.csv"},
     "--samples"},
    {"int_not_a_number",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "abc", "--out",
      "out.csv"},
     "--samples"},
    {"real_with_trailing_junk",
     {"daemon", "--synthetic", "50", "--epochs", "1", "--churn", "0.0x",
      "--out", "out.tingmx"},
     "--churn"},
    {"pair_with_trailing_junk",
     {"query", "--matrix", kMatrix, "--pair", "1,2junk"},
     "--pair"},
    {"band_with_trailing_junk",
     {"query", "--matrix", kMatrix, "--band", "10:200xyz"},
     "--band"},
    {"flag_given_twice",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10", "--faults",
      "loss:*:0.1", "--faults", "loss:*:0.2", "--out", "out.csv"},
     "--faults"},
    {"stray_argument_after_bool",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10",
      "--pipeline", "extra", "--out", "out.csv"},
     "--pipeline"},
    {"synthetic_below_two_relays",
     {"daemon", "--synthetic", "1", "--epochs", "1", "--out", "out.tingmx"},
     "--synthetic"},
    {"scenario_unknown_trailing_flag",
     {"scenario", "show", "calm", "--bogus"},
     "--bogus"},
    {"scenario_extra_operand", {"scenario", "list", "extra"}, "'extra'"},
};

// Print the case by name: the raw bytes gtest prints by default hold
// pointers, which would rename the discovered ctest tests on every build.
void PrintTo(const UsageCase& c, std::ostream* os) { *os << c.name; }

class CliUsageError : public testing::TestWithParam<UsageCase> {};

/// An empty scratch directory, removed with everything in it.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("ting_cli_test_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  const std::filesystem::path path;
};

TEST_P(CliUsageError, ExitsTwoNamingItAndWritesNothing) {
  const UsageCase& c = GetParam();
  const ScratchDir scratch(c.name);
  const std::filesystem::path& dir = scratch.path;

  // stderr into the pipe, stdout discarded.
  std::string cmd = "cd '" + dir.string() + "' && exec '" TING_CLI "'";
  for (const std::string& a : c.args) cmd += " '" + a + "'";
  cmd += " 2>&1 >/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string err;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;)
    err.append(buf, n);
  const int status = ::pclose(pipe);

  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 2) << err;
  const std::size_t at = err.find("error: ");
  ASSERT_NE(at, std::string::npos) << err;
  const std::string line = err.substr(at, err.find('\n', at) - at);
  EXPECT_NE(line.find(c.named), std::string::npos) << line;
  EXPECT_NE(err.find("usage: ting " + c.args[0]), std::string::npos) << err;
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "a usage error wrote a file";
}

INSTANTIATE_TEST_SUITE_P(Ting, CliUsageError, testing::ValuesIn(kCases),
                         [](const testing::TestParamInfo<UsageCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
