// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/serialize.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace planar {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

PlanarIndexSet MakeSet(uint64_t seed, size_t budget,
                       IndexSetOptions options = IndexSetOptions()) {
  PhiMatrix phi = RandomPhi(500, 3, -20.0, 80.0, seed);
  options.budget = budget;
  auto set = PlanarIndexSet::Build(
      std::move(phi), {{1.0, 6.0}, {-6.0, -1.0}, {1.0, 6.0}}, options);
  PLANAR_CHECK(set.ok());
  return std::move(set).value();
}

TEST(SerializeTest, RoundTripPreservesAnswers) {
  const std::string path = TempPath("set_roundtrip.planar");
  PlanarIndexSet original = MakeSet(81, 8);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  auto loaded = LoadIndexSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_indices(), original.num_indices());
  for (size_t i = 0; i < original.num_indices(); ++i) {
    EXPECT_EQ(loaded->index(i).normal(), original.index(i).normal());
    EXPECT_EQ(loaded->index(i).octant(), original.index(i).octant());
  }

  Rng rng(82);
  for (int trial = 0; trial < 15; ++trial) {
    ScalarProductQuery q;
    q.a = {rng.Uniform(1, 6), -rng.Uniform(1, 6), rng.Uniform(1, 6)};
    q.b = rng.Uniform(-200, 400);
    q.cmp = trial % 2 == 0 ? Comparison::kLessEqual
                           : Comparison::kGreaterEqual;
    EXPECT_EQ(Sorted(loaded->Inequality(q).ids),
              Sorted(original.Inequality(q).ids))
        << trial;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, OptionsSurviveRoundTrip) {
  const std::string path = TempPath("set_options.planar");
  IndexSetOptions options;
  options.selector = IndexSetOptions::Selector::kAngle;
  options.index_options.backend = PlanarIndexOptions::Backend::kBTree;
  options.index_options.enable_axis_exclusion = false;
  options.index_options.epsilon_band = 1e-7;
  PlanarIndexSet original = MakeSet(83, 3, options);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  auto loaded = LoadIndexSet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->options().selector, IndexSetOptions::Selector::kAngle);
  EXPECT_EQ(loaded->options().index_options.backend,
            PlanarIndexOptions::Backend::kBTree);
  EXPECT_FALSE(loaded->options().index_options.enable_axis_exclusion);
  EXPECT_DOUBLE_EQ(loaded->options().index_options.epsilon_band, 1e-7);
  EXPECT_EQ(loaded->index(0).backend(),
            PlanarIndexOptions::Backend::kBTree);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  auto loaded = LoadIndexSet(TempPath("does_not_exist.planar"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.planar");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not an index", f);
  std::fclose(f);
  auto loaded = LoadIndexSet(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileFailsWithDataLoss) {
  const std::string path = TempPath("truncated.planar");
  PlanarIndexSet original = MakeSet(84, 2);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  // Chop the file to two thirds.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size * 2 / 3), 0);
  auto loaded = LoadIndexSet(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  PLANAR_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  PLANAR_CHECK(std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path,
              const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  PLANAR_CHECK(f != nullptr);
  PLANAR_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) ==
               bytes.size());
  std::fclose(f);
}

TEST(SerializeTest, BitFlipFailsWithDataLoss) {
  const std::string path = TempPath("bitflip.planar");
  PlanarIndexSet original = MakeSet(85, 2);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  std::vector<unsigned char> bytes = ReadAll(path);
  // The header is magic(8) + crc(4) + size(8) = 20 bytes; flip one bit in
  // the middle of the payload (phi data), where a v1-style reader would
  // have rebuilt a silently wrong index.
  const size_t victim = 20 + (bytes.size() - 20) / 2;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = static_cast<unsigned char>(bytes[victim] ^ 0x10);
  WriteAll(path, bytes);

  auto loaded = LoadIndexSet(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, V1FilesStillLoad) {
  const std::string path = TempPath("v2.planar");
  const std::string v1_path = TempPath("v1.planar");
  PlanarIndexSet original = MakeSet(86, 3);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());

  // A v1 file is the magic "PLNRIDX1" followed directly by the payload —
  // the v2 layout minus the crc and size fields.
  std::vector<unsigned char> v2 = ReadAll(path);
  std::vector<unsigned char> v1;
  const char kV1Magic[8] = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '1'};
  v1.insert(v1.end(), kV1Magic, kV1Magic + 8);
  v1.insert(v1.end(), v2.begin() + 20, v2.end());
  WriteAll(v1_path, v1);

  auto loaded = LoadIndexSet(v1_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->num_indices(), original.num_indices());
  ScalarProductQuery q;
  q.a = {2.0, -3.0, 4.0};
  q.b = 150.0;
  EXPECT_EQ(Sorted(loaded->Inequality(q).ids),
            Sorted(original.Inequality(q).ids));
  std::remove(path.c_str());
  std::remove(v1_path.c_str());
}

// Payload layout (after the version header): the 64-byte options record,
// then dim and n as uint64, then the phi rows.
constexpr size_t kDimOffset = 64;
constexpr size_t kRowsOffset = kDimOffset + 8;

void PutU64(std::vector<unsigned char>* bytes, size_t at, uint64_t value) {
  PLANAR_CHECK(at + sizeof(value) <= bytes->size());
  std::memcpy(bytes->data() + at, &value, sizeof(value));
}

// A header claiming far more rows than the file holds must fail with a
// Status before anything is sized from it: this 88-byte v1 blob (magic,
// options, dim = 2, n = 2^40) used to abort the loader with bad_alloc.
TEST(SerializeTest, V1HeaderClaimingHugeRowCountRejected) {
  const std::string path = TempPath("huge_v1.planar");
  PlanarIndexSet original = MakeSet(88, 1);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  const std::vector<unsigned char> v2 = ReadAll(path);
  std::vector<unsigned char> v1 = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '1'};
  v1.insert(v1.end(), v2.begin() + 20, v2.begin() + 20 + kRowsOffset + 8);
  ASSERT_EQ(v1.size(), 88u);
  PutU64(&v1, 8 + kDimOffset, 2);
  PutU64(&v1, 8 + kRowsOffset, uint64_t{1} << 40);
  WriteAll(path, v1);

  auto loaded = LoadIndexSet(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

void AppendU64(std::vector<unsigned char>* bytes, uint64_t value) {
  const unsigned char* raw = reinterpret_cast<const unsigned char*>(&value);
  bytes->insert(bytes->end(), raw, raw + sizeof(value));
}

// Wraps a payload in the v2 header: magic, CRC of the payload, size.
std::vector<unsigned char> WrapV2(const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> bytes = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '2'};
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const unsigned char* raw = reinterpret_cast<const unsigned char*>(&crc);
  bytes.insert(bytes.end(), raw, raw + sizeof(crc));
  AppendU64(&bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

// The v2 checksum guards against bit rot, not against a malformed writer.
// Under a valid CRC, a header claiming a huge row count and a
// self-consistent blob with 65 axes (more than the 64-bit octant mask
// can describe) are both rejected by the field checks.
TEST(SerializeTest, V2MalformedHeaderWithValidCrcRejected) {
  const std::string path = TempPath("malformed_v2.planar");
  PlanarIndexSet original = MakeSet(89, 2);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  const std::vector<unsigned char> good = ReadAll(path);
  const std::vector<unsigned char> options_record(
      good.begin() + 20, good.begin() + 20 + kDimOffset);

  std::vector<unsigned char> huge_rows(good.begin() + 20, good.end());
  PutU64(&huge_rows, kRowsOffset, uint64_t{1} << 40);

  // One row and one index over 65 axes, every field present.
  constexpr uint64_t kDim = 65;
  std::vector<unsigned char> wide_dim = options_record;
  AppendU64(&wide_dim, kDim);
  AppendU64(&wide_dim, 1);  // n
  const std::vector<double> ones(kDim, 1.0);
  const unsigned char* row =
      reinterpret_cast<const unsigned char*>(ones.data());
  wide_dim.insert(wide_dim.end(), row, row + kDim * sizeof(double));
  AppendU64(&wide_dim, 1);  // num_indices
  AppendU64(&wide_dim, 0);  // octant bits: first octant
  wide_dim.insert(wide_dim.end(), row, row + kDim * sizeof(double));

  for (const std::vector<unsigned char>* payload : {&huge_rows, &wide_dim}) {
    WriteAll(path, WrapV2(*payload));
    auto loaded = LoadIndexSet(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Field checks past the header in an unchecksummed v1 blob: an index
// count the bytes left cannot hold (2^61 used to throw length_error from
// the reserve and terminate the process), and options no writer produces
// (a NaN delta_margin used to trip a PLANAR_CHECK in the translator).
// Each must come back as InvalidArgument.
TEST(SerializeTest, V1MalformedIndexCountAndOptionsRejected) {
  const std::string path = TempPath("malformed_v1.planar");
  PlanarIndexSet original = MakeSet(90, 2);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());
  const std::vector<unsigned char> v2 = ReadAll(path);
  std::vector<unsigned char> v1 = {'P', 'L', 'N', 'R', 'I', 'D', 'X', '1'};
  v1.insert(v1.end(), v2.begin() + 20, v2.end());
  {
    WriteAll(path, v1);
    auto loaded = LoadIndexSet(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  }

  const auto put_bytes = [](std::vector<unsigned char>* bytes, size_t at,
                            const void* value, size_t size) {
    std::memcpy(bytes->data() + 8 + at, value, size);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const uint32_t bad_enum = 7;
  const size_t num_indices_at =
      kRowsOffset + 8 + original.size() * original.phi().dim() * 8;
  struct Mutation {
    const char* what;
    size_t at;  // payload offset
    const void* value;
    size_t size;
  };
  const uint64_t huge_count = uint64_t{1} << 61;
  const Mutation mutations[] = {
      {"num_indices = 2^61", num_indices_at, &huge_count, 8},
      {"selector out of range", 8, &bad_enum, 4},
      {"backend out of range", 12, &bad_enum, 4},
      {"NaN dedup_tolerance", 16, &nan, 8},
      {"NaN delta_margin", 40, &nan, 8},
      {"infinite delta_margin", 40, &inf, 8},
      {"NaN epsilon_band", 48, &nan, 8},
  };
  for (const Mutation& m : mutations) {
    std::vector<unsigned char> bad = v1;
    put_bytes(&bad, m.at, m.value, m.size);
    WriteAll(path, bad);
    auto loaded = LoadIndexSet(path);
    ASSERT_FALSE(loaded.ok()) << m.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << m.what << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadWithOptionsOverrideSwitchesBackend) {
  const std::string path = TempPath("override.planar");
  // Saved with the sorted-array backend...
  PlanarIndexSet original = MakeSet(87, 2);
  ASSERT_EQ(original.options().index_options.backend,
            PlanarIndexOptions::Backend::kSortedArray);
  ASSERT_TRUE(SaveIndexSet(original, path).ok());

  // ...loaded onto the B+-tree backend via the override, answers intact.
  IndexSetOptions override_options = original.options();
  override_options.index_options.backend =
      PlanarIndexOptions::Backend::kBTree;
  auto loaded = LoadIndexSet(path, &override_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options().index_options.backend,
            PlanarIndexOptions::Backend::kBTree);
  EXPECT_EQ(loaded->index(0).backend(), PlanarIndexOptions::Backend::kBTree);
  ScalarProductQuery q;
  q.a = {3.0, -2.0, 1.0};
  q.b = 120.0;
  EXPECT_EQ(Sorted(loaded->Inequality(q).ids),
            Sorted(original.Inequality(q).ids));

  // A null override is identical to the single-argument overload.
  auto plain = LoadIndexSet(path, nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->options().index_options.backend,
            PlanarIndexOptions::Backend::kSortedArray);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace planar
