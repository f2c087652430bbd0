// Differential tests of the CSV layer against tests/csv_reference.h, the
// parser and writer it replaced: seeded mutants of hostile and benign CSV
// files must load to the same Dataset (or fail with the same code and
// message) under every option set, pinned number strings must parse to the
// same status and bits, and written CSV must match byte for byte.

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/random.h"
#include "common/string_util.h"
#include "csv_reference.h"
#include "dataset/loaders.h"

namespace lofkit {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string WriteBytes(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/lofkit_csvdiff_" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// True (and no failure recorded) when both sides failed alike or both
// succeeded; the caller compares the values only in the second case.
template <typename T, typename U>
bool SameOutcome(const Result<T>& actual, const Result<U>& expected) {
  EXPECT_EQ(actual.ok(), expected.ok())
      << "actual: " << actual.status() << " expected: " << expected.status();
  if (actual.ok() != expected.ok()) return false;
  if (!actual.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code());
    EXPECT_EQ(actual.status().message(), expected.status().message());
    return false;
  }
  return true;
}

void ExpectSameDataset(const Result<Dataset>& actual,
                       const Result<Dataset>& expected) {
  if (!SameOutcome(actual, expected)) return;
  ASSERT_EQ(actual->size(), expected->size());
  ASSERT_EQ(actual->dimension(), expected->dimension());
  ASSERT_EQ(actual->raw().size(), expected->raw().size());
  EXPECT_EQ(std::memcmp(actual->raw().data(), expected->raw().data(),
                        actual->raw().size_bytes()),
            0);
  for (size_t i = 0; i < actual->size(); ++i) {
    EXPECT_EQ(actual->label(i), expected->label(i)) << "point " << i;
  }
}

void ExpectSameTable(const Result<CsvTable>& actual,
                     const Result<CsvTable>& expected) {
  if (!SameOutcome(actual, expected)) return;
  EXPECT_EQ(actual->header, expected->header);
  ASSERT_EQ(actual->rows.size(), expected->rows.size());
  for (size_t r = 0; r < actual->rows.size(); ++r) {
    ASSERT_EQ(actual->rows[r].size(), expected->rows[r].size());
    EXPECT_EQ(std::memcmp(actual->rows[r].data(), expected->rows[r].data(),
                          actual->rows[r].size() * sizeof(double)),
              0)
        << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Loader: mutants of in-repo seeds under seven option sets.
// ---------------------------------------------------------------------------

std::vector<std::string> SeedFiles() {
  using std::string;
  std::vector<string> seeds = {
      // The LoadersHostileInputTest cases.
      string("1,2\n3,\0 4\n", 10),
      "1,2\n1e999,4\n",
      "1,2\n-1e999,4\n",
      "1,2\n1e-999,4\n",
      "1,2\ninf,4\n",
      "1,2\n3,nan\n",
      "1,2\n3,4\n5\n",
      "1,2\n3,4,5\n",
      "1,2\n3,4xyz\n",
      "1,2\n3,\n",
      "1,2\nhello,world\n",
      // Benign: CRLF, comments and blank lines; a header.
      "# comment\r\n1,2\r\n\r\n3,4\n  # indented comment\n5,6\n",
      "x,y,cls\n1,2,0\n3,4,1\n5,6,1\n",
  };
  Rng rng(35);
  string table;
  for (int r = 0; r < 50; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c > 0) table.push_back(',');
      const double scale = std::pow(10.0, static_cast<double>(
                                              rng.UniformU64(41)) - 20.0);
      table += StrFormat("%.17g", rng.Gaussian() * scale);
    }
    table.push_back('\n');
  }
  seeds.push_back(table);
  return seeds;
}

std::string Mutate(const std::string& seed, Rng& rng) {
  static const std::string kAlphabet("0123456789.eE+-,;#xpnaif \t\r\n\0",
                                     30);
  std::string text = seed;
  const uint64_t edits = 1 + rng.UniformU64(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const char c = kAlphabet[rng.UniformU64(kAlphabet.size())];
    const uint64_t op = text.empty() ? 0 : rng.UniformU64(3);
    if (op == 0) {
      text.insert(text.begin() + rng.UniformU64(text.size() + 1), c);
    } else if (op == 1) {
      text[rng.UniformU64(text.size())] = c;
    } else {
      text.erase(rng.UniformU64(text.size()), 1);
    }
  }
  return text;
}

std::vector<std::pair<const char*, DatasetLoadOptions>> OptionSets() {
  std::vector<std::pair<const char*, DatasetLoadOptions>> sets(7);
  sets[0].first = "defaults";
  sets[1].first = "has_header";
  sets[1].second.csv.has_header = true;
  sets[2].first = "no_comments";
  sets[2].second.csv.allow_comments = false;
  sets[3].first = "semicolon";
  sets[3].second.csv.separator = ';';
  sets[4].first = "max_line_bytes_16";
  sets[4].second.csv.max_line_bytes = 16;
  sets[5].first = "label_column_0";
  sets[5].second.label_column = 0;
  sets[6].first = "coordinate_columns_1_0";
  sets[6].second.coordinate_columns = {1, 0};
  return sets;
}

TEST(CsvDifferentialTest, MutantsLoadAsTheReferenceLoads) {
  constexpr int kMutantsPerSeed = 120;
  const auto option_sets = OptionSets();
  const std::string path = ::testing::TempDir() + "/lofkit_csvdiff_mutant";
  Rng rng(20261020);
  size_t loaded = 0;
  size_t refused = 0;
  for (const std::string& seed : SeedFiles()) {
    for (int m = 0; m <= kMutantsPerSeed; ++m) {
      const std::string text = m == 0 ? seed : Mutate(seed, rng);
      WriteBytes("mutant", text);
      for (const auto& [name, options] : option_sets) {
        SCOPED_TRACE(::testing::Message()
                     << "options " << name << ", file \""
                     << JsonEscape(text) << "\"");
        const Result<Dataset> expected =
            csv_reference::DatasetFromCsvFile(path, options);
        ExpectSameDataset(DatasetFromCsvFile(path, options), expected);
        (expected.ok() ? loaded : refused) += 1;

        const Result<CsvTable> table = ParseCsv(text, options.csv);
        ExpectSameTable(table, csv_reference::ParseCsv(text, options.csv));
        ExpectSameTable(ReadCsvFile(path, options.csv),
                        csv_reference::ReadCsvFile(path, options.csv));
        if (table.ok()) {
          ExpectSameDataset(
              DatasetFromCsvTable(*table, options),
              csv_reference::DatasetFromCsvTable(*table, options));
        }
        if (::testing::Test::HasFailure()) {
          std::remove(path.c_str());
          return;
        }
      }
    }
  }
  std::remove(path.c_str());
  // Both outcomes must be well represented, or the comparison proves
  // little.
  EXPECT_GT(loaded, 500u);
  EXPECT_GT(refused, 5000u);
}

// ---------------------------------------------------------------------------
// Number grammar: pinned strings with their status and bits.
// ---------------------------------------------------------------------------

struct PinnedNumber {
  const char* text;
  StatusCode code;
  uint64_t bits;  // Checked when code is kOk.
};

TEST(CsvDifferentialTest, PinnedNumbersParseAsTheReferenceParses) {
  using enum StatusCode;
  const PinnedNumber kPins[] = {
      {"0", kOk, 0x0000000000000000},
      {"-0", kOk, 0x8000000000000000},
      {"0e999", kOk, 0x0000000000000000},
      {"-0.0e-999", kOk, 0x8000000000000000},
      {"1", kOk, 0x3ff0000000000000},
      {"+1", kOk, 0x3ff0000000000000},
      {" 1", kOk, 0x3ff0000000000000},
      {"\t-2e3\r", kOk, 0xc09f400000000000},
      {"00012", kOk, 0x4028000000000000},
      {"0.1", kOk, 0x3fb999999999999a},
      {"0.1000000000000000055511151231257827021181583404541015625", kOk,
       0x3fb999999999999a},
      {".5", kOk, 0x3fe0000000000000},
      {"5.", kOk, 0x4014000000000000},
      {"1.e5", kOk, 0x40f86a0000000000},
      {"1e+5", kOk, 0x40f86a0000000000},
      {"1E-5", kOk, 0x3ee4f8b588e368f1},
      {"9007199254740993", kOk, 0x4340000000000000},
      {"123456789012345678901234567890", kOk, 0x45f8ee90ff6c373e},
      {"0x1p3", kOk, 0x4020000000000000},
      {"0X1.8P1", kOk, 0x4008000000000000},
      {"-1.5e-300", kOk, 0x81b01297d23ab683},
      {"1.7976931348623157e308", kOk, 0x7fefffffffffffff},
      {"1.7976931348623158e308", kOk, 0x7fefffffffffffff},
      {"2.2250738585072014e-308", kOk, 0x0010000000000000},
      {"inf", kOk, 0x7ff0000000000000},
      {"-Infinity", kOk, 0xfff0000000000000},
      {"nan", kOk, 0x7ff8000000000000},
      {"-nan", kOk, 0xfff8000000000000},
      {"NaN(123)", kOk, 0x7ff800000000007b},
      // Out of double range: overflow, and every result that underflows,
      // including a decimal that rounds up to the smallest normal.
      {"1e999", kOutOfRange, 0},
      {"-1e999", kOutOfRange, 0},
      {"1.7976931348623159e308", kOutOfRange, 0},
      {"1e-999", kOutOfRange, 0},
      {"4.9e-324", kOutOfRange, 0},
      {"2.2250738585072011e-308", kOutOfRange, 0},
      {"2.2250738585072012e-308", kOutOfRange, 0},
      {"-2.2250738585072012e-308", kOutOfRange, 0},
      // Not numbers, or not only numbers.
      {"", kInvalidArgument, 0},
      {"   ", kInvalidArgument, 0},
      {".", kInvalidArgument, 0},
      {"1e", kInvalidArgument, 0},
      {"nan(", kInvalidArgument, 0},
      {"0x", kInvalidArgument, 0},
      {"+-1", kInvalidArgument, 0},
      {"--1", kInvalidArgument, 0},
      {"1 2", kInvalidArgument, 0},
      {"1,5", kInvalidArgument, 0},
      {"1_000", kInvalidArgument, 0},
      {"1.2.3", kInvalidArgument, 0},
      {"12x", kInvalidArgument, 0},
      {"banana", kInvalidArgument, 0},
      {"infx", kInvalidArgument, 0},
      {"1e5e5", kInvalidArgument, 0},
  };
  for (const PinnedNumber& pin : kPins) {
    SCOPED_TRACE(::testing::Message() << "\"" << pin.text << "\"");
    const Result<double> expected = csv_reference::ParseDouble(pin.text);
    const Result<double> actual = ParseDouble(pin.text);
    EXPECT_EQ(expected.status().code(), pin.code);
    EXPECT_EQ(actual.status().code(), pin.code);
    if (pin.code == kOk) {
      ASSERT_TRUE(expected.ok() && actual.ok());
      EXPECT_EQ(Bits(*expected), pin.bits);
      EXPECT_EQ(Bits(*actual), pin.bits);
    } else {
      EXPECT_EQ(actual.status().message(), expected.status().message());
    }
  }
}

TEST(CsvDifferentialTest, PrintedNumbersParseAsTheReferenceParses) {
  // Every %.Ng rendering of random bit patterns, and decimals around the
  // normal/subnormal boundary, where the range checks decide.
  Rng rng(4242);
  for (int i = 0; i < 20000; ++i) {
    const double value = FromBits(rng.NextU64());
    const int digits = 1 + static_cast<int>(rng.UniformU64(25));
    std::string text = StrFormat("%.*g", digits, value);
    if (i % 2 == 1) {
      text = StrFormat("%.*e", digits,
                       DBL_MIN * (0.999999999 + 2e-9 * rng.NextDouble()));
    }
    SCOPED_TRACE(text);
    const Result<double> expected = csv_reference::ParseDouble(text);
    const Result<double> actual = ParseDouble(text);
    ASSERT_EQ(actual.status().code(), expected.status().code());
    if (expected.ok()) {
      ASSERT_EQ(Bits(*actual), Bits(*expected));
    } else {
      ASSERT_EQ(actual.status().message(), expected.status().message());
    }
  }
}

// ---------------------------------------------------------------------------
// Writer: byte-identical output.
// ---------------------------------------------------------------------------

void ExpectSameCsvText(const CsvTable& table, char separator) {
  const std::string expected = csv_reference::WriteCsv(table, separator);
  const std::string actual = WriteCsv(table, separator);
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_TRUE(actual == expected);
  const std::string path = ::testing::TempDir() + "/lofkit_csvdiff_written";
  ASSERT_TRUE(WriteCsvFile(path, table, separator).ok());
  EXPECT_TRUE(ReadBytes(path) == expected);
  std::remove(path.c_str());
}

TEST(CsvDifferentialTest, RandomBitPatternsWriteAsTheReferenceWrites) {
  Rng rng(17);
  CsvTable table;
  table.header = {"a", "b", "c", "d"};
  for (int r = 0; r < 50000; ++r) {
    std::vector<double> row(4);
    for (double& v : row) v = FromBits(rng.NextU64());
    table.rows.push_back(std::move(row));
  }
  ExpectSameCsvText(table, ',');
  table.rows.resize(1000);
  ExpectSameCsvText(table, ';');
}

TEST(CsvDifferentialTest, IntegersAndFormatBoundariesWriteAsTheReferenceWrites) {
  CsvTable table;
  auto add = [&table](double v) {
    table.rows.push_back({v, -v});
  };
  for (int i = 0; i <= 2000; ++i) add(i);
  for (int e = 0; e < 64; ++e) {
    const double p = std::ldexp(1.0, e);
    add(p - 1);
    add(p);
    add(p + 1);
  }
  for (double boundary : {1e15, 1e16, 1e17, 1e18, 1e-3, 1e-4, 1e-5, 1e-6,
                          DBL_MIN, DBL_MAX, DBL_EPSILON}) {
    double below = boundary;
    double above = boundary;
    for (int step = 0; step < 4; ++step) {
      add(below);
      add(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
    }
  }
  for (double special : {0.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::denorm_min(), 0.1,
                         1.0 / 3.0, 123456789012345678.0}) {
    add(special);
  }
  ExpectSameCsvText(table, ',');
  table.header = {"point", "score"};
  ExpectSameCsvText(table, '\t');
}

}  // namespace
}  // namespace lofkit
