// Fixed-size log-linear histogram of non-negative nanosecond values: exact
// below 1024, then 512 buckets per power of two (relative error < 0.2%).
// Its memory does not depend on how many values it records, so the
// benchmark's latency bookkeeping costs the same on every commit. The
// benchmark keeps its own rather than common/histogram.h so that the
// instrument does not change with the code it measures.

#ifndef PERFBENCH_LOG_HISTOGRAM_H_
#define PERFBENCH_LOG_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

class LogHistogram {
 public:
  LogHistogram() : counts_(kBuckets, 0) {}

  void Record(int64_t value) {
    ++counts_[Index(value < 0 ? 0 : static_cast<uint64_t>(value))];
    ++total_;
  }
  void Merge(const LogHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }
  uint64_t count() const { return total_; }

  /// Nearest-rank quantile, reported as its bucket's midpoint.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_ - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return Midpoint(i);
    }
    return Midpoint(kBuckets - 1);
  }

 private:
  static constexpr size_t kBuckets = 512 * 55 + 512;

  static size_t Index(uint64_t v) {
    if (v < 1024) return static_cast<size_t>(v);
    int shift = std::bit_width(v) - 10;
    return static_cast<size_t>(512 * shift) + static_cast<size_t>(v >> shift);
  }
  static double Midpoint(size_t index) {
    if (index < 1024) return static_cast<double>(index);
    size_t shift = index / 512 - 1;
    uint64_t low = static_cast<uint64_t>(index - 512 * shift) << shift;
    return static_cast<double>(low) +
           static_cast<double>((uint64_t{1} << shift) - 1) / 2.0;
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOG_HISTOGRAM_H_
