// Deterministic pseudo-random number generation.
//
// Every experiment in this repository draws all randomness from a seeded
// Rng so that any run is reproducible from the seed printed in its header.
// The generator is xoshiro256** seeded through SplitMix64, a combination
// with good statistical quality and trivially portable behaviour.

#ifndef SEP2P_UTIL_RNG_H_
#define SEP2P_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sep2p::util {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
uint64_t SplitMix64(uint64_t& state);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextUint64();

  // Uniform value in [0, bound). `bound` must be > 0. Uses rejection
  // sampling, so the distribution is exactly uniform.
  uint64_t NextUint64(uint64_t bound);

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Fills `out` with uniform random bytes.
  void FillBytes(uint8_t* out, size_t len);
  std::array<uint8_t, 32> NextBytes32();

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextUint64(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Draws `count` distinct indices from [0, population) in O(count) expected
  // time (Floyd's algorithm); the result is sorted.
  std::vector<size_t> SampleIndices(size_t population, size_t count);

 private:
  std::array<uint64_t, 4> s_;
};

}  // namespace sep2p::util

#endif  // SEP2P_UTIL_RNG_H_
