// Per-kernel stage timing, producing the runtime breakdowns of the paper's
// Fig 4. The six stages are exactly the six computational kernels of
// Sec. VI: PRNG, sampling+weighting, local sort, global estimate, particle
// exchange, and resampling.
//
// Each add() accumulates one launch into its stage's sum and count, so
// every seconds() and fraction() comes with its launch count. The
// per-launch distribution lives in the registry's "stage.<key>" histograms
// when telemetry is attached (core::StageProbe); a timer stays 96 bytes,
// which matters for a serve session that carries one per filter.
// fraction() and breakdown_string() are well-defined on a fresh or reset()
// timer (total() == 0): every fraction is 0 and the breakdown says so
// instead of printing six baseless 0.0% bars.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

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

/// Per-stage launch time sums and counts (wall-clock seconds).
class StageTimers {
 public:
  /// Records one launch of `stage` taking `seconds`.
  void add(Stage stage, double seconds) {
    const auto s = static_cast<std::size_t>(stage);
    seconds_[s] += seconds;
    ++launches_[s];
  }

  /// Total wall-clock seconds spent in `stage` across all launches.
  [[nodiscard]] double seconds(Stage stage) const {
    return seconds_[static_cast<std::size_t>(stage)];
  }

  /// Number of launches recorded for `stage` (the sample size behind
  /// every fraction of that stage).
  [[nodiscard]] std::size_t launches(Stage stage) const {
    return static_cast<std::size_t>(launches_[static_cast<std::size_t>(stage)]);
  }

  [[nodiscard]] double total() const;

  /// Fraction of the total spent in `stage`. Well-defined for an empty or
  /// reset timer: 0 when total() == 0.
  [[nodiscard]] double fraction(Stage stage) const;

  void reset() {
    seconds_.fill(0.0);
    launches_.fill(0);
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
  std::array<double, kStageCount> seconds_{};
  std::array<std::uint64_t, kStageCount> launches_{};
};

}  // namespace esthera::core
