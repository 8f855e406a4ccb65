// Sample statistics the benchmark reports: nearest-rank percentiles, the
// highest percentile that still has ten samples beyond it, medians, and
// failure counting against attempts.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, which need not
// be sorted. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// Median (the nearest-rank 50th percentile).
double Median(std::vector<double> samples);

// Number of samples ranked strictly above the nearest-rank percentile `p`
// of a sample of size `n`.
uint64_t SamplesBeyond(uint64_t n, double p);

// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least ten
// samples beyond it in a sample of size `n`; 0 when even the median has
// fewer than ten (n < 20). A tail figure is only reported at a
// percentile this function allows.
double TailPercentile(uint64_t n);

// Operations attempted and failed in a run. A failed operation counts as
// attempted; the ratio of an empty tally is 0.
class Tally {
 public:
  void Record(bool ok) { Add(1, ok ? 0 : 1); }
  void Add(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t completed() const { return attempted_ - failed_; }
  double failed_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
