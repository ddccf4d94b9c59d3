#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/options.hpp"
#include "common/stopwatch.hpp"
#include "core/result.hpp"

namespace dsud {
namespace {

// ---------------------------------------------------------------------------
// envOr

TEST(OptionsTest, EnvOrFallsBackWhenUnset) {
  ::unsetenv("DSUD_TEST_UNSET");
  EXPECT_EQ(envOr("DSUD_TEST_UNSET", std::int64_t{7}), 7);
  EXPECT_EQ(envOr("DSUD_TEST_UNSET", 2.5), 2.5);
  EXPECT_EQ(envOr("DSUD_TEST_UNSET", std::string("x")), "x");
}

TEST(OptionsTest, EnvOrParsesValues) {
  ::setenv("DSUD_TEST_INT", "123", 1);
  ::setenv("DSUD_TEST_DBL", "0.75", 1);
  ::setenv("DSUD_TEST_STR", "paper", 1);
  EXPECT_EQ(envOr("DSUD_TEST_INT", std::int64_t{0}), 123);
  EXPECT_EQ(envOr("DSUD_TEST_DBL", 0.0), 0.75);
  EXPECT_EQ(envOr("DSUD_TEST_STR", std::string{}), "paper");
  ::unsetenv("DSUD_TEST_INT");
  ::unsetenv("DSUD_TEST_DBL");
  ::unsetenv("DSUD_TEST_STR");
}

TEST(OptionsTest, EnvOrRejectsGarbage) {
  ::setenv("DSUD_TEST_BAD", "12abc", 1);
  EXPECT_EQ(envOr("DSUD_TEST_BAD", std::int64_t{5}), 5);
  ::setenv("DSUD_TEST_BAD", "", 1);
  EXPECT_EQ(envOr("DSUD_TEST_BAD", std::int64_t{5}), 5);
  ::unsetenv("DSUD_TEST_BAD");
}

// ---------------------------------------------------------------------------
// ArgParser

TEST(ArgParserTest, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=100", "--verbose", "input.txt",
                        "--q=0.5"};
  const ArgParser args(5, argv);
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.getInt("n", 0), 100);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", ""), "true");
  EXPECT_EQ(args.getDouble("q", 0.0), 0.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(ArgParserTest, MissingKeysFallBack) {
  const char* argv[] = {"prog"};
  const ArgParser args(1, argv);
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.getInt("n", 42), 42);
  EXPECT_EQ(args.getDouble("q", 0.25), 0.25);
  EXPECT_EQ(args.get("name", "def"), "def");
}

TEST(ArgParserTest, MalformedNumbersFallBack) {
  const char* argv[] = {"prog", "--n=12x", "--q=oops"};
  const ArgParser args(3, argv);
  EXPECT_EQ(args.getInt("n", 9), 9);
  EXPECT_EQ(args.getDouble("q", 0.1), 0.1);
}

TEST(ArgParserTest, EmptyValueAllowed) {
  const char* argv[] = {"prog", "--out="};
  const ArgParser args(2, argv);
  EXPECT_TRUE(args.has("out"));
  EXPECT_EQ(args.get("out", "def"), "");
}

// ---------------------------------------------------------------------------
// Stopwatch

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = watch.elapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 5000.0);
  EXPECT_NEAR(watch.elapsedSeconds() * 1e6, watch.elapsedMicros(),
              watch.elapsedMicros() * 0.5);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.restart();
  EXPECT_LT(watch.elapsedMillis(), 15.0);
}

// ---------------------------------------------------------------------------
// Result ordering

TEST(ResultTest, SortByGlobalProbabilityWithTies) {
  std::vector<GlobalSkylineEntry> entries(3);
  entries[0].tuple.id = 5;
  entries[0].globalSkyProb = 0.4;
  entries[1].tuple.id = 2;
  entries[1].globalSkyProb = 0.9;
  entries[2].tuple.id = 1;
  entries[2].globalSkyProb = 0.4;
  sortByGlobalProbability(entries);
  EXPECT_EQ(entries[0].tuple.id, 2u);
  EXPECT_EQ(entries[1].tuple.id, 1u);  // tie broken by ascending id
  EXPECT_EQ(entries[2].tuple.id, 5u);
}

}  // namespace
}  // namespace dsud
