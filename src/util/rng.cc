#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace sep2p::util {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling over the largest multiple of `bound`.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

void Rng::FillBytes(uint8_t* out, size_t len) {
  size_t i = 0;
  while (i + 8 <= len) {
    uint64_t word = NextUint64();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<uint8_t>(word >> (8 * b));
  }
  if (i < len) {
    uint64_t word = NextUint64();
    for (int b = 0; i < len; ++b) out[i++] = static_cast<uint8_t>(word >> (8 * b));
  }
}

std::array<uint8_t, 32> Rng::NextBytes32() {
  std::array<uint8_t, 32> out;
  FillBytes(out.data(), out.size());
  return out;
}

std::vector<size_t> Rng::SampleIndices(size_t population, size_t count) {
  assert(count <= population);
  // Floyd's algorithm: draws exactly `count` distinct values.
  std::set<size_t> chosen;
  for (size_t j = population - count; j < population; ++j) {
    size_t t = static_cast<size_t>(NextUint64(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  return std::vector<size_t>(chosen.begin(), chosen.end());
}

}  // namespace sep2p::util
