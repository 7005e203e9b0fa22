#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"

namespace valocal {
namespace {

TEST(GraphIo, RoundTrip) {
  const Graph g = gen::forest_union(200, 3, 97);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_TRUE(back.has_edge(g.edge_u(e), g.edge_v(e)));
}

TEST(GraphIo, CommentsAndBlankLines) {
  std::stringstream in(
      "# a comment\n\n3 2\n# edges follow\n0 1\n\n1 2\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphIo, MalformedInputDies) {
  std::stringstream missing("3 5\n0 1\n");
  EXPECT_DEATH((void)read_edge_list(missing), "truncated");
  std::stringstream selfloop("2 1\n1 1\n");
  EXPECT_DEATH((void)read_edge_list(selfloop), "self-loop");
  // Trailing data: a header token past m, a weighted "u v w" row, and a
  // row after the m-th edge (whose out-of-range ids were never read).
  std::stringstream header("3 2 junk\n0 1\n1 2\n");
  EXPECT_DEATH((void)read_edge_list(header), "malformed header.*at line 1");
  std::stringstream weighted("3 2\n0 1 7\n1 2 4\n");
  EXPECT_DEATH((void)read_edge_list(weighted), "trailing data.*at line 2");
  std::stringstream extra("3 2\n0 1\n1 2\n5 6\n");
  EXPECT_DEATH((void)read_edge_list(extra), "after the last.*at line 4");
}

TEST(GraphIo, RejectsOutOfRangeAndNegativeIds) {
  // Regression: ids were extracted unsigned and unchecked, so "-1"
  // wrapped to 4294967295 and any id >= n corrupted the CSR build
  // far from the offending row. Each death message must carry the
  // 1-based line number of the bad row.
  std::stringstream big("3 2\n0 1\n1 7\n");
  EXPECT_DEATH((void)read_edge_list(big),
               "out of range.*at line 3");
  std::stringstream negative("3 1\n-1 2\n");
  EXPECT_DEATH((void)read_edge_list(negative),
               "negative vertex id.*at line 2");
  std::stringstream wraparound("3 1\n0 -4294967295\n");
  EXPECT_DEATH((void)read_edge_list(wraparound), "negative vertex id");
  std::stringstream garbage("3 1\n0 x\n");
  EXPECT_DEATH((void)read_edge_list(garbage),
               "malformed edge line.*at line 2");
}

TEST(GraphIo, WriteFailureDiesLoudly) {
  // Regression: write_edge_list never checked stream state, so a full
  // disk (or closed pipe) produced a silently truncated file.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full unavailable";
  const Graph g(3, {{0, 1}, {1, 2}});
  std::ofstream full("/dev/full");
  ASSERT_TRUE(full.good());
  EXPECT_DEATH(write_edge_list(full, g), "write failed");
  EXPECT_DEATH(save_edge_list("/dev/full", g), "write failed");
  EXPECT_DEATH(save_edge_list("/no/such/dir/out.txt", g), "cannot open");
}

TEST(GraphIo, DotOutputContainsEdgesAndColors) {
  const Graph g = gen::path(3);
  const std::vector<int> colors{0, 1, 0};
  std::stringstream out;
  write_dot(out, g, &colors);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note the parser's rule: "--flag token" binds the token as the
  // flag's value, so bare flags must use "--flag=true" (or appear
  // last / before another flag).
  const char* argv[] = {"prog",          "--n",       "42", "--eps=1.5",
                        "--verbose=true", "input.txt", "--name", "ring"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1.5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_string("verbose", ""), "true");
  EXPECT_EQ(args.get_string("name", ""), "ring");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_EQ(args.get_string("gen", "forest"), "forest");
  EXPECT_FALSE(args.has("n"));
}

TEST(Cli, MalformedNumberDies) {
  const char* argv[] = {"prog", "--n", "notanumber"};
  CliArgs args(3, argv);
  EXPECT_DEATH((void)args.get_int("n", 0), "malformed");

  // Count flags: negative and empty values die naming the flag instead
  // of wrapping to a huge size_t (or, for an empty value, reading 0).
  const char* hostile[] = {"prog", "--threads", "-1", "--batch-trials",
                           "-3", "--n=", "--a", "-2"};
  CliArgs counts(8, hostile);
  EXPECT_DEATH((void)counts.get_count("threads", 1), "negative.*--threads");
  EXPECT_DEATH((void)counts.get_count("batch-trials", 0),
               "negative.*--batch-trials");
  EXPECT_DEATH((void)counts.get_count("n", 4096), "malformed.*--n");
  EXPECT_DEATH((void)counts.get_int("n", 4096), "malformed.*--n");
  EXPECT_DEATH((void)counts.get_count("a", 2), "negative.*--a");

  // Floating-point flags: malformed and empty values die naming the
  // flag too (a bare --eps reads "true").
  const char* reals[] = {"prog", "--eps", "--avg-deg=", "--k", "1.5x"};
  CliArgs floats(5, reals);
  EXPECT_DEATH((void)floats.get_double("eps", 1.0), "malformed.*--eps");
  EXPECT_DEATH((void)floats.get_double("avg-deg", 4.0),
               "malformed.*--avg-deg");
  EXPECT_DEATH((void)floats.get_double("k", 0.0), "malformed.*--k");
}

/// Replaces the death-test child process with valocal_cli run on
/// `args`; a failed exec exits 0, which the death test reports.
void exec_cli(std::vector<std::string> args) {
  std::string cli = VALOCAL_CLI_PATH;
  std::vector<char*> argv{cli.data()};
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  std::_Exit(0);
}

/// Runs valocal_cli on `flags` (stdout discarded); returns its status.
int run_cli(const std::string& flags) {
  return std::system(
      (std::string(VALOCAL_CLI_PATH) + " " + flags + " > /dev/null")
          .c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(Cli, NumericFlagsAreParsedEvenWhenTheGraphSourceIgnoresThem) {
  // --avg-deg only feeds --gen er, and --n no graph file; both are
  // still parsed before anything runs.
  EXPECT_DEATH(exec_cli({"--gen", "ring", "--n", "16", "--algo", "mis",
                         "--avg-deg", "x"}),
               "malformed.*--avg-deg");
  const std::string input = ::testing::TempDir() + "cli_three.txt";
  std::ofstream(input) << "3 2\n0 1\n1 2\n";
  EXPECT_DEATH(exec_cli({"--input", input, "--algo", "mis", "--n", "x"}),
               "malformed.*--n");
  std::remove(input.c_str());
}

TEST(Cli, ArboricityBelowTheDegeneracyBoundDies) {
  // Q7 has degeneracy 7, so a(Q7) >= ceil(8 / 2) = 4: the default
  // --a 2 is provably false, and an entry that reads --a must be
  // refused before it runs rather than fail an invariant mid-run.
  for (const char* algo : {"mis", "partition"})
    EXPECT_DEATH(exec_cli({"--gen", "hypercube", "--n", "100", "--algo",
                           algo}),
                 "--a 2 .*degeneracy 7.*at least 4");
  // An entry that does not read --a runs on the same graph.
  EXPECT_EQ(run_cli("--gen hypercube --n 100 --algo luby"), 0);
  EXPECT_EQ(run_cli("--gen hypercube --n 100 --a 4 --algo mis"), 0);
}

TEST(Cli, EdgeEntriesRefuseAnArboricityPastTheirThresholdLimit) {
  // RMAT s14x16 has degeneracy 121, so its --a floor is 61; at --eps 1
  // that is threshold 183, past the edge entries' int8 label limit of
  // 120. The refusal comes before dispatch (exit 2, no SIGABRT) and
  // names the largest --a that fits: 40 at --eps 1, 48 at --eps 0.5.
  for (const char* algo : {"edge_coloring", "matching"})
    EXPECT_EXIT(exec_cli({"--graph", "rmat:14x16", "--a", "61", "--algo",
                          algo}),
                ::testing::ExitedWithCode(2),
                "--a 61 gives threshold 183, above the 120 .*largest "
                "admissible --a at --eps 1 is 40");
  EXPECT_EXIT(exec_cli({"--gen", "forest", "--n", "64", "--a", "49",
                        "--eps", "0.5", "--algo", "matching"}),
              ::testing::ExitedWithCode(2), "--eps 0.5 is 48");
  // At the limit the entries run; entries without one are not limited.
  EXPECT_EQ(run_cli("--gen forest --n 64 --a 40 --algo edge_coloring"), 0);
  EXPECT_EQ(run_cli("--gen forest --n 64 --a 41 --algo mis"), 0);
}

TEST(Cli, ThreadCountAboveTheCeilingDies) {
  // Dies in the engine pool's constructor, before any worker starts.
  EXPECT_DEATH(exec_cli({"--gen", "ring", "--n", "16", "--algo", "mis",
                         "--threads", "100000"}),
               "ceiling");
}

TEST(Cli, PermTakesASeedAndRelabelsReproducibly) {
  EXPECT_DEATH(exec_cli({"--gen", "ring", "--n", "16", "--algo", "mis",
                         "--perm", "random"}),
               "malformed integer value for --perm");
  const std::string dir = ::testing::TempDir();
  auto rounds_with = [&](const std::string& perm, const std::string& tag) {
    const std::string csv = dir + "cli_perm_" + tag + ".csv";
    EXPECT_EQ(run_cli("--gen forest --n 256 --algo delta_plus1 " + perm +
                      " --rounds-csv " + csv),
              0);
    const std::string rounds = slurp(csv);
    std::remove(csv.c_str());
    return rounds;
  };
  const std::string first = rounds_with("--perm 3", "a");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(rounds_with("--perm 3", "b"), first);
  EXPECT_NE(rounds_with("", "identity"), first);
}

TEST(Cli, BarePathFlagDies) {
  // A value-taking flag given bare reads "true": --run-json would write
  // its record to a file named "true". require_values dies naming the
  // flag, whether the bare flag is followed by a flag or ends the line.
  const char* mid[] = {"prog", "--run-json", "--n", "5"};
  CliArgs a(4, mid);
  EXPECT_DEATH(a.require_values({"input", "run-json"}),
               "missing value for --run-json");
  const char* last[] = {"prog", "--algo", "ka", "--dot"};
  CliArgs b(4, last);
  EXPECT_DEATH(b.require_values({"algo", "dot"}), "missing value for --dot");

  // Given values (either form), or absent, the flags pass; a bare
  // boolean flag outside the list is not checked.
  const char* given[] = {"prog", "--run-json", "r.jsonl", "--dot=g.dot",
                         "--list-algos"};
  CliArgs c(5, given);
  c.require_values({"input", "run-json", "dot"});
  EXPECT_EQ(c.get_string("run-json", ""), "r.jsonl");
  EXPECT_TRUE(c.has("list-algos"));
}

TEST(Cli, EnvCountParsesOrFallsBack) {
  ::unsetenv("VALOCAL_TEST_COUNT");
  EXPECT_EQ(env_count("VALOCAL_TEST_COUNT", 7), 7u);
  ::setenv("VALOCAL_TEST_COUNT", "4", 1);
  EXPECT_EQ(env_count("VALOCAL_TEST_COUNT", 7), 4u);
  ::setenv("VALOCAL_TEST_COUNT", "0", 1);
  EXPECT_EQ(env_count("VALOCAL_TEST_COUNT", 7), 0u);
  ::unsetenv("VALOCAL_TEST_COUNT");
  EXPECT_EQ(parse_count("12", "VALOCAL_THREADS"), 12u);
}

TEST(Cli, MalformedEnvCountDiesNamingTheVariable) {
  // Empty, non-numeric, negative and trailing-junk values must abort
  // naming the variable instead of silently becoming the default (or,
  // for "4x", silently becoming 4).
  for (const char* bad : {"", "abc", "-2", "4x"}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    ::setenv("VALOCAL_THREADS", bad, 1);
    EXPECT_DEATH((void)env_count("VALOCAL_THREADS", 1),
                 "(malformed|negative).*VALOCAL_THREADS");
    EXPECT_DEATH((void)parse_count(bad, "VALOCAL_THREADS"),
                 "(malformed|negative).*VALOCAL_THREADS");
  }
  ::unsetenv("VALOCAL_THREADS");
}

}  // namespace
}  // namespace valocal
