#include "common/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "gen/synthetic.hpp"

namespace dsud {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dsud_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void expectEqualDatasets(const Dataset& a, const Dataset& b) {
    ASSERT_EQ(a.dims(), b.dims());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t row = 0; row < a.size(); ++row) {
      EXPECT_EQ(a.id(row), b.id(row));
      EXPECT_EQ(a.prob(row), b.prob(row));
      const auto av = a.values(row);
      const auto bv = b.values(row);
      for (std::size_t j = 0; j < a.dims(); ++j) EXPECT_EQ(av[j], bv[j]);
    }
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, BinaryRoundTrip) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{500, 3, ValueDistribution::kAnticorrelated, 600});
  saveDatasetBinary(data, path("d.bin"));
  const Dataset loaded = loadDatasetBinary(path("d.bin"));
  expectEqualDatasets(data, loaded);
}

TEST_F(IoTest, BinaryRoundTripEmptyDataset) {
  const Dataset data(2);
  saveDatasetBinary(data, path("empty.bin"));
  const Dataset loaded = loadDatasetBinary(path("empty.bin"));
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.dims(), 2u);
}

TEST_F(IoTest, BinaryPreservesExactDoubles) {
  Dataset data(2);
  data.add(0, std::vector<double>{0.1 + 0.2, 1e-300}, 1e-9);
  saveDatasetBinary(data, path("exact.bin"));
  const Dataset loaded = loadDatasetBinary(path("exact.bin"));
  EXPECT_EQ(loaded.values(0)[0], 0.1 + 0.2);
  EXPECT_EQ(loaded.values(0)[1], 1e-300);
  EXPECT_EQ(loaded.prob(0), 1e-9);
}

TEST_F(IoTest, BinaryMissingFileThrows) {
  EXPECT_THROW(loadDatasetBinary(path("nope.bin")), IoError);
}

TEST_F(IoTest, BinaryBadMagicThrows) {
  std::ofstream out(path("junk.bin"), std::ios::binary);
  out << "JUNKJUNKJUNKJUNKJUNK";
  out.close();
  EXPECT_THROW(loadDatasetBinary(path("junk.bin")), IoError);
}

TEST_F(IoTest, BinaryTruncationThrows) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{100, 2, ValueDistribution::kIndependent, 601});
  saveDatasetBinary(data, path("t.bin"));
  const auto size = std::filesystem::file_size(path("t.bin"));
  std::filesystem::resize_file(path("t.bin"), size - 5);
  EXPECT_THROW(loadDatasetBinary(path("t.bin")), IoError);
}

TEST_F(IoTest, BinaryTrailingGarbageThrows) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{10, 2, ValueDistribution::kIndependent, 602});
  saveDatasetBinary(data, path("g.bin"));
  std::ofstream out(path("g.bin"), std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_THROW(loadDatasetBinary(path("g.bin")), IoError);
}

TEST_F(IoTest, CsvRoundTrip) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{200, 4, ValueDistribution::kCorrelated, 603});
  saveDatasetCsv(data, path("d.csv"));
  const Dataset loaded = loadDatasetCsv(path("d.csv"));
  expectEqualDatasets(data, loaded);  // precision 17 round-trips doubles
}

TEST_F(IoTest, CsvWithoutHeaderLoads) {
  std::ofstream out(path("plain.csv"));
  out << "7,0.5,1.25,2.5\n8,0.25,3,4\n";
  out.close();
  const Dataset loaded = loadDatasetCsv(path("plain.csv"));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.id(0), 7u);
  EXPECT_EQ(loaded.prob(1), 0.25);
  EXPECT_EQ(loaded.values(0)[1], 2.5);
}

TEST_F(IoTest, CsvScientificNotationAccepted) {
  std::ofstream out(path("sci.csv"));
  out << "1,5e-1,1.5e2,-2E-3\n";
  out.close();
  const Dataset loaded = loadDatasetCsv(path("sci.csv"));
  EXPECT_EQ(loaded.prob(0), 0.5);
  EXPECT_EQ(loaded.values(0)[0], 150.0);
  EXPECT_EQ(loaded.values(0)[1], -0.002);
}

TEST_F(IoTest, CsvSkipsBlankLines) {
  std::ofstream out(path("blank.csv"));
  out << "id,prob,v0\n\n1,0.5,2.0\n\n2,0.5,3.0\n";
  out.close();
  EXPECT_EQ(loadDatasetCsv(path("blank.csv")).size(), 2u);
}

TEST_F(IoTest, CsvRaggedRowThrows) {
  std::ofstream out(path("ragged.csv"));
  out << "1,0.5,2.0,3.0\n2,0.5,4.0\n";
  out.close();
  EXPECT_THROW(loadDatasetCsv(path("ragged.csv")), IoError);
}

TEST_F(IoTest, CsvBadNumberReportsLine) {
  std::ofstream out(path("bad.csv"));
  out << "1,0.5,2.0\n2,zero,3.0\n";
  out.close();
  try {
    loadDatasetCsv(path("bad.csv"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST_F(IoTest, CsvBadProbabilityThrows) {
  std::ofstream out(path("badp.csv"));
  out << "1,1.5,2.0\n";
  out.close();
  EXPECT_THROW(loadDatasetCsv(path("badp.csv")), IoError);
}

TEST_F(IoTest, CsvInfiniteCoordinateNamesTheRow) {
  // strtod parses "inf"; the dataset refuses it, naming the tuple's id.
  std::ofstream out(path("inf.csv"));
  out << "1,0.5,2.0\n7,0.5,inf\n";
  out.close();
  try {
    loadDatasetCsv(path("inf.csv"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("id 7"), std::string::npos);
  }
}

TEST_F(IoTest, CsvEmptyFileThrows) {
  std::ofstream out(path("empty.csv"));
  out.close();
  EXPECT_THROW(loadDatasetCsv(path("empty.csv")), IoError);
}

TEST_F(IoTest, BinaryAndCsvAgree) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{100, 2, ValueDistribution::kIndependent, 604});
  saveDatasetBinary(data, path("x.bin"));
  saveDatasetCsv(data, path("x.csv"));
  expectEqualDatasets(loadDatasetBinary(path("x.bin")),
                      loadDatasetCsv(path("x.csv")));
}

}  // namespace
}  // namespace dsud
