// Negative-path coverage for numeric flags and removed backend flags.
// Regression: --n / --workers / --queue / --memory-entries went through
// bare std::stoull/std::stoul, so "12x" silently truncated to 12 and
// "banana" died with an unhandled std::invalid_argument("stoull") that
// named no flag at all. Every malformed value must now exit 2 with a
// message naming the flag and the rejected value. Runs the shipped binary
// (NOBL_CLI_PATH), like the help-drift suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <sys/wait.h>

namespace {

struct CommandOutput {
  int exit_code = -1;
  std::string text;  ///< stdout + stderr interleaved
};

CommandOutput run_cli(const std::string& args) {
  const std::string command = std::string(NOBL_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CommandOutput out;
  if (pipe == nullptr) return out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.text.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

void expect_rejected(const std::string& args, const std::string& flag,
                     const std::string& value) {
  const CommandOutput out = run_cli(args);
  EXPECT_EQ(out.exit_code, 2) << args << "\n" << out.text;
  EXPECT_NE(out.text.find(flag), std::string::npos)
      << "`" << args << "` must name " << flag << ", got: " << out.text;
  EXPECT_NE(out.text.find(value), std::string::npos)
      << "`" << args << "` must echo the rejected value, got: " << out.text;
}

TEST(FlagParsing, MalformedNumbersAreRejectedWithTheFlagName) {
  expect_rejected("trace --replay missing.nbt --n banana", "--n", "banana");
  expect_rejected("trace --replay missing.nbt --n 64x", "--n", "64x");
  expect_rejected("trace --replay missing.nbt --n -5", "--n", "-5");
  expect_rejected("trace --replay missing.nbt --n 99999999999999999999999",
                  "--n", "99999999999999999999999");
  expect_rejected("serve --socket /tmp/nobl-absent.sock --workers banana",
                  "--workers", "banana");
  expect_rejected("serve --socket /tmp/nobl-absent.sock --queue 1e3",
                  "--queue", "1e3");
  expect_rejected("serve --socket /tmp/nobl-absent.sock --memory-entries 12x",
                  "--memory-entries", "12x");
}

TEST(FlagParsing, OutOfRangeCountsAreRejected) {
  const CommandOutput workers =
      run_cli("serve --socket /tmp/nobl-absent.sock --workers 4096");
  EXPECT_EQ(workers.exit_code, 2);
  EXPECT_NE(workers.text.find("--workers"), std::string::npos);
}

TEST(FlagParsing, UnknownBackendNamesTheValidOnes) {
  for (const char* args : {"run --campaign golden --backend carrier-pigeon",
                           "run --campaign golden --backend distributed",
                           "certify --campaign golden --backend dist"}) {
    const CommandOutput out = run_cli(args);
    EXPECT_EQ(out.exit_code, 2) << args;
    EXPECT_NE(out.text.find("unknown backend"), std::string::npos) << args;
    for (const char* valid : {"simulate", "cost", "record", "analytic"}) {
      EXPECT_NE(out.text.find(valid), std::string::npos)
          << "`" << args << "` must list " << valid << ", got: " << out.text;
    }
  }
}

TEST(FlagParsing, UnregisteredFlagsAreUnknownOptions) {
  // Flags a subcommand does not register are refused as unknown options,
  // never silently ignored.
  const std::pair<std::string, std::string> cases[] = {
      {"run --campaign golden --transport tcp", "--transport"},
      {"run --campaign golden --dist-workers 4", "--dist-workers"},
      {"certify --campaign golden --transport fork", "--transport"},
      {"certify --campaign golden --dist-workers 2", "--dist-workers"},
      {"check --golden tests/golden --transport tcp", "--transport"},
  };
  for (const auto& [args, flag] : cases) {
    const CommandOutput out = run_cli(args);
    EXPECT_EQ(out.exit_code, 2) << args << "\n" << out.text;
    EXPECT_NE(out.text.find("unknown option \"" + flag + "\""),
              std::string::npos)
        << "`" << args << "` must name " << flag << ", got: " << out.text;
    EXPECT_NE(out.text.find("--help"), std::string::npos) << args;
  }
}

}  // namespace
