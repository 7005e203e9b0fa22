#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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
