#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/hex.h"

namespace sep2p::crypto {
namespace {

std::string HexOf(const Digest& d) {
  return util::ToHex(d.data(), d.size());
}

// The fixed test pattern: byte i is i mod 251.
std::vector<uint8_t> Pattern(size_t len) {
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) data[i] = static_cast<uint8_t>(i % 251);
  return data;
}

// FIPS 180-4 / NIST CAVP known-answer tests.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexOf(Sha256Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexOf(Sha256Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HexOf(Sha256Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(HexOf(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.Update(msg.substr(0, split));
    ctx.Update(msg.substr(split));
    EXPECT_EQ(ctx.Finish(), Sha256Hash(msg)) << "split at " << split;
  }

  // Every Update overload on a 300-byte message, in uneven chunks whose
  // edges (7, 39, 100, 153, 243, 275) straddle the 64-byte blocks.
  const std::vector<uint8_t> data = Pattern(300);
  const uint8_t* p = data.data();
  Digest digest_chunk{};
  Sha256 ctx;
  ctx.Update(p, 7);
  std::copy(p + 7, p + 39, digest_chunk.begin());
  ctx.Update(digest_chunk);
  ctx.Update(std::vector<uint8_t>(p + 39, p + 100));
  ctx.Update(std::string(p + 100, p + 153));
  ctx.Update(p + 153, 90);
  std::copy(p + 243, p + 275, digest_chunk.begin());
  ctx.Update(digest_chunk);
  ctx.Update(std::vector<uint8_t>(p + 275, p + 300));
  EXPECT_EQ(ctx.Finish(), Sha256Hash(data));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.Update("first message");
  ctx.Finish();
  ctx.Reset();
  ctx.Update("abc");
  EXPECT_EQ(HexOf(ctx.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Digests of Pattern(len), produced with coreutils sha256sum (gnulib's
// own SHA-256; it does not link libcrypto):
//   for n in 0 1 55 56 63 64 65 119 120 128 1000 16384; do
//     python3 -c "import sys; sys.stdout.buffer.write(
//         bytes(i % 251 for i in range($n)))" | sha256sum
//   done
// The lengths cover the padding edge (55/56 and 119/120 bytes), the block
// edge (63/64/65, 128) and the 16,384-byte attested-cache snapshot.
TEST(Sha256Test, KnownAnswersOnFixedPattern) {
  const std::pair<size_t, const char*> kCases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"},
      {119,
       "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {120,
       "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"},
      {128,
       "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
      {1000,
       "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d"},
      {16384,
       "4348e3b98e8a327b34ced39c1da9e67cdb4cd5e48e4d7960607a3ae403d35f0c"},
  };
  for (const auto& [len, hex] : kCases) {
    EXPECT_EQ(HexOf(Sha256Hash(Pattern(len))), hex) << "len " << len;
  }
}

TEST(Sha256Test, OutputLooksUniform) {
  // Bit-balance sanity check over many hashes (each output bit should be
  // set about half the time) — the property the paper's imposed node
  // placement relies on.
  constexpr int kHashes = 2000;
  int bit_counts[256] = {};
  for (int i = 0; i < kHashes; ++i) {
    Digest d = Sha256Hash("node-" + std::to_string(i));
    for (int bit = 0; bit < 256; ++bit) {
      if (d[bit / 8] & (1 << (bit % 8))) ++bit_counts[bit];
    }
  }
  for (int bit = 0; bit < 256; ++bit) {
    EXPECT_NEAR(bit_counts[bit], kHashes / 2, 150) << "bit " << bit;
  }
}

}  // namespace
}  // namespace sep2p::crypto
