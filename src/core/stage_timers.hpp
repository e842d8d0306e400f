// Per-kernel stage timing, producing the runtime breakdowns of the paper's
// Fig 4. The six stages are exactly the six computational kernels of
// Sec. VI: PRNG, sampling+weighting, local sort, global estimate, particle
// exchange, and resampling.
//
// Accounting is per launch, not sum-only: each add() records one sample
// into a fixed-bucket telemetry::LatencyHistogram per stage, so seconds()
// and fraction() (views over the histograms) come with launch counts and
// p50/p95/p99 for free. fraction() and breakdown_string() are well-defined
// on a fresh or reset() timer (total() == 0): every fraction is 0 and the
// breakdown says so instead of printing six baseless 0.0% bars.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "telemetry/histogram.hpp"

namespace esthera::core {

enum class Stage : std::size_t {
  kRand = 0,
  kSampling,
  kLocalSort,
  kGlobalEstimate,
  kExchange,
  kResampling,
};

inline constexpr std::size_t kStageCount = 6;

/// Per-stage launch latency histograms (wall-clock seconds).
class StageTimers {
 public:
  /// Records one launch of `stage` taking `seconds`.
  void add(Stage stage, double seconds) {
    histograms_[static_cast<std::size_t>(stage)].record(seconds);
  }

  /// Total wall-clock seconds spent in `stage` across all launches.
  [[nodiscard]] double seconds(Stage stage) const {
    return histograms_[static_cast<std::size_t>(stage)].sum();
  }

  /// Number of launches recorded for `stage` (the sample size behind
  /// every fraction/percentile of that stage).
  [[nodiscard]] std::size_t launches(Stage stage) const {
    return static_cast<std::size_t>(
        histograms_[static_cast<std::size_t>(stage)].count());
  }

  /// Full per-launch latency distribution of `stage`.
  [[nodiscard]] const telemetry::LatencyHistogram& histogram(Stage stage) const {
    return histograms_[static_cast<std::size_t>(stage)];
  }

  [[nodiscard]] double total() const;

  /// Fraction of the total spent in `stage`. Well-defined for an empty or
  /// reset timer: 0 when total() == 0.
  [[nodiscard]] double fraction(Stage stage) const;

  void reset() {
    for (auto& h : histograms_) h.reset();
  }

  [[nodiscard]] static const char* name(Stage stage);

  /// Machine-friendly stage key ("local_sort" instead of "local sort"),
  /// used for the registry histogram names "stage.<key>".
  [[nodiscard]] static const char* key(Stage stage);

  /// "rand 12.3% (20x) | sampling 20.1% (20x) | ..." -- one line per Fig 4
  /// bar, each share tagged with its launch count so a fraction is never
  /// reported without its sample size. "(no samples)" when total() == 0.
  [[nodiscard]] std::string breakdown_string() const;

 private:
  std::array<telemetry::LatencyHistogram, kStageCount> histograms_{};
};

}  // namespace esthera::core
