// The `ting` command line, run as a built binary.
//
// Usage errors: each case runs in an empty directory and must exit 2 with an
// `error:` line naming the offending flag or argument, before any work: the
// directory stays empty, so no --out file (or default-named artifact) was
// written.
//
// Golden stdout: the read commands on the 50-node matrix, and on a sparse
// copy of it, and the figures that read that matrix must print exactly the
// bytes committed under tests/golden/.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
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
    {"query_pair_and_band",
     {"query", "--matrix", kMatrix, "--pair", "0,5", "--band", "100:200"},
     "--pair and --band"},
    {"query_pair_and_through",
     {"query", "--matrix", kMatrix, "--pair", "0,5", "--through", "3"},
     "--pair and --through"},
    {"query_through_and_band",
     {"query", "--matrix", kMatrix, "--through", "3", "--band", "100:200"},
     "--through and --band"},
    {"daemon_negative_budget",
     {"daemon", "--synthetic", "50", "--epochs", "1", "--budget", "-1",
      "--no-journal", "--out", "out.tingmx"},
     "--budget"},
    {"query_negative_k",
     {"query", "--matrix", kMatrix, "--through", "3", "--k", "-2"},
     "--k"},
    {"scan_negative_samples",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "-3", "--out",
      "out.csv"},
     "--samples"},
    {"scan_shards_past_int",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10", "--shards",
      "4294967297", "--out", "out.csv"},
     "--shards"},
    {"scan_samples_past_int",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "3000000000",
      "--out", "out.csv"},
     "--samples"},
    {"scan_quarantine_threshold_past_int",
     {"scan", "--relays", "8", "--nodes", "6", "--samples", "10",
      "--quarantine-threshold", "4294967296", "--out", "out.csv"},
     "--quarantine-threshold"},
    {"deanon_zero_runs",
     {"deanon", "--matrix", kMatrix, "--runs", "0"},
     "--runs"},
    {"coords_zero_percent",
     {"coords", "--matrix", kMatrix, "--percent", "0"},
     "--percent"},
    {"coords_percent_past_100",
     {"coords", "--matrix", kMatrix, "--percent", "500"},
     "--percent"},
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

/// What one run of `ting` printed on the stream `redirect` routes into the
/// pipe, and its wait status (-1 if it could not start).
struct Ran {
  std::string out;
  int status = -1;
};

/// Runs `program`, a shell word (default: the built `ting`), in `dir`.
Ran run_ting(const std::filesystem::path& dir,
             const std::vector<std::string>& args, const char* redirect,
             const std::string& program = "'" TING_CLI "'") {
  std::string cmd = "cd '" + dir.string() + "' && exec " + program;
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += redirect;
  Ran ran;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return ran;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;)
    ran.out.append(buf, n);
  ran.status = ::pclose(pipe);
  return ran;
}

TEST_P(CliUsageError, ExitsTwoNamingItAndWritesNothing) {
  const UsageCase& c = GetParam();
  const ScratchDir scratch(c.name);
  const std::filesystem::path& dir = scratch.path;

  // stderr into the pipe, stdout discarded.
  const Ran ran = run_ting(dir, c.args, " 2>&1 >/dev/null");
  const std::string& err = ran.out;
  const int status = ran.status;
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

struct GoldenCase {
  const char* name;  ///< stdout is tests/golden/<name>.txt
  bool sparse;       ///< read the sparse copy instead of the full matrix
  /// `ting` arguments, --matrix <file> going after the first. Empty: run
  /// the bench figure `name` beside a copy of the matrix, which it reads
  /// from its working directory at full scale.
  std::vector<std::string> args;
};

const GoldenCase kGolden[] = {
    {"full_query_pair", false, {"query", "--pair", "0,5"}},
    {"full_query_through", false, {"query", "--through", "3"}},
    {"full_query_band", false, {"query", "--band", "100:200"}},
    {"full_tiv", false, {"tiv"}},
    {"full_coords", false, {"coords"}},
    {"full_deanon", false, {"deanon", "--runs", "10"}},
    // Pair (0, 1) is the first data row, which the sparse copy drops.
    {"sparse_query_pair", true, {"query", "--pair", "0,1"}},
    {"sparse_query_through", true, {"query", "--through", "3"}},
    {"sparse_query_band", true, {"query", "--band", "100:200"}},
    {"sparse_tiv", true, {"tiv"}},
    {"sparse_coords", true, {"coords"}},
    {"sparse_deanon", true, {"deanon", "--runs", "10"}},
    {"fig14_tiv_savings", false, {}},
    {"fig15_tiv_scatter", false, {}},
    {"fig16_circuit_rtt_histogram", false, {}},
    {"fig17_circuit_entropy", false, {}},
    {"ablation_coordinates", false, {}},
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The 50-node matrix without data rows 1, 4, 7, …: a third of its pairs
/// unmeasured, every relay still present. The header line stays.
void write_sparse_copy(const std::filesystem::path& out) {
  std::ifstream in(kMatrix);
  std::ofstream os(out);
  std::string line;
  std::getline(in, line);
  os << line << '\n';
  for (std::size_t row = 0; std::getline(in, line); ++row)
    if (row % 3 != 0) os << line << '\n';
}

class CliGolden : public testing::TestWithParam<GoldenCase> {};

TEST_P(CliGolden, StdoutMatchesTheCommittedBytes) {
  const GoldenCase& c = GetParam();
  const ScratchDir scratch(c.name);
  std::string matrix = kMatrix;
  if (c.sparse) {
    matrix = (scratch.path / "sparse.csv").string();
    write_sparse_copy(matrix);
  }
  Ran ran;
  if (c.args.empty()) {
    std::filesystem::copy_file(kMatrix,
                               scratch.path / "ting_50node_matrix.csv");
    // The figure scales by the environment, and must not remeasure.
    ran = run_ting(scratch.path, {}, " 2>/dev/null",
                   std::string("env -u TING_BENCH_SCALE -u TING_BENCH_FRESH '")
                       + TING_BENCH_DIR "/" + c.name + "'");
  } else {
    std::vector<std::string> args{c.args[0], "--matrix", matrix};
    args.insert(args.end(), c.args.begin() + 1, c.args.end());
    ran = run_ting(scratch.path, args, " 2>/dev/null");
  }
  ASSERT_TRUE(WIFEXITED(ran.status)) << ran.out;
  ASSERT_EQ(WEXITSTATUS(ran.status), 0) << ran.out;
  const std::string want = read_file(std::filesystem::path(TING_SOURCE_DIR) /
                                     "tests" / "golden" /
                                     (std::string(c.name) + ".txt"));
  ASSERT_FALSE(want.empty()) << "missing golden file for " << c.name;
  EXPECT_EQ(ran.out, want);
}

INSTANTIATE_TEST_SUITE_P(Ting, CliGolden, testing::ValuesIn(kGolden),
                         [](const testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
