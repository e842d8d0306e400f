// Distributed-filter configuration: exactly the parameter set of the
// paper's Table I (particles per sub-filter m, number of sub-filters N,
// exchange scheme X, particles per exchange t) plus the implementation
// choices the paper evaluates (resampling algorithm, resampling policy,
// estimate operator, PRNG core) and Table II's defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "device/invariants.hpp"
#include "prng/mtgp_stream.hpp"
#include "resample/ess.hpp"
#include "topology/topology.hpp"

namespace esthera::telemetry {
struct Telemetry;
}

namespace esthera::monitor {
class HealthMonitor;
}

namespace esthera::core {

/// Which resampling algorithm a (sub-)filter runs (paper Sec. IV/VI-F).
enum class ResampleAlgorithm : std::uint8_t {
  kRws,         ///< Roulette Wheel Selection: prefix sum + binary search
  kVose,        ///< Vose's alias method (in-place device construction)
  kSystematic,  ///< low-variance comb (extension)
  kStratified,  ///< one draw per stratum (extension)
  kMetropolis,  ///< collective-free Metropolis chains (Murray; biased for finite B)
  kRejection,   ///< collective-free rejection against w_max (unbiased)
};

/// True for the collective-free resamplers (no scan, no sort, no alias
/// build inside the lock-step schedule) - the Murray family this library
/// adds on top of the paper's RWS/Vose pair.
[[nodiscard]] constexpr bool is_collective_free(ResampleAlgorithm a) {
  return a == ResampleAlgorithm::kMetropolis || a == ResampleAlgorithm::kRejection;
}

[[nodiscard]] const char* to_string(ResampleAlgorithm a);
[[nodiscard]] ResampleAlgorithm parse_resample_algorithm(const std::string& name);

/// How the global estimate is reduced from the particle set (Sec. IV: "we
/// select the particle with the highest global weight"; the weighted mean
/// is the usual alternative).
enum class EstimatorKind : std::uint8_t {
  kMaxWeight,
  kWeightedMean,
};

[[nodiscard]] const char* to_string(EstimatorKind e);
[[nodiscard]] EstimatorKind parse_estimator(const std::string& name);

/// Full distributed-filter configuration (Table I + implementation knobs).
struct FilterConfig {
  std::size_t particles_per_filter = 512;  ///< m; power of two (Table II GPU: 512)
  std::size_t num_filters = 1024;          ///< N (Table II: 1024)
  topology::ExchangeScheme scheme = topology::ExchangeScheme::kRing;  ///< X
  std::size_t exchange_particles = 1;      ///< t (Table II: 1)
  ResampleAlgorithm resample = ResampleAlgorithm::kRws;
  resample::ResamplePolicy policy = resample::ResamplePolicy::always();

  /// Chain length B of the Metropolis resampler (ignored by every other
  /// algorithm). 0 picks resample::metropolis_default_steps(m). Longer
  /// chains cost 2*B inline RNG draws per particle but shrink the
  /// resampling bias like (1 - 1/beta)^B; the HealthMonitor's
  /// `metropolis_bias` detector flags step counts below the recommended
  /// bound for the observed weight skew.
  std::size_t metropolis_steps = 0;
  EstimatorKind estimator = EstimatorKind::kMaxWeight;
  prng::Generator generator = prng::Generator::kMtgp;
  std::uint64_t seed = 42;
  std::size_t workers = 0;  ///< emulator worker threads; 0 = auto

  /// Gordon-style roughening: after each local resampling, every particle
  /// is jittered per dimension by N(0, (k * E_d * m^{-1/dim})^2) where E_d
  /// is the dimension's value range within the sub-filter. Restores the
  /// diversity that resampling duplicates destroy - the same failure mode
  /// behind the paper's All-to-All result, attacked from the other side.
  /// 0 disables roughening (the paper's configuration).
  double roughening_k = 0.0;

  /// Runtime opt-in for the esthera::debug invariant checker: validates the
  /// post-conditions of all six kernels after every launch and throws
  /// debug::InvariantViolation on the first breach. Defaults to on in
  /// builds compiled with -DESTHERA_CHECKED (CMake option ESTHERA_CHECKED);
  /// off otherwise, where every check site reduces to a branch-on-null.
  bool check_invariants = debug::kCheckedBuild;

  /// Observability sink (esthera::telemetry). Null (the default) disables
  /// every probe at the cost of one branch per site; when set, the filter
  /// records per-launch stage histograms ("stage.<key>"), one trace span
  /// per kernel launch, and per-step ESS / unique-parent / entropy /
  /// exchange-volume / RNG-high-water / pool series into the instance.
  /// Recording is passive: estimates are bit-identical either way. The
  /// pointer is borrowed; the Telemetry must outlive the filter.
  telemetry::Telemetry* telemetry = nullptr;

  /// Runtime health monitor (esthera::monitor), attached exactly like
  /// `telemetry`: null (the default) disables every probe at the cost of
  /// one branch per site; when set, the filter feeds the monitor the same
  /// per-step signals it records into telemetry (per-group ESS fraction,
  /// unique-parent fraction, normalized weight entropy, non-finite-weight
  /// counts, exchange volume) and the monitor raises structured,
  /// rate-limited events for collapse/starvation/anomaly conditions.
  /// Observation is passive: estimates are bit-identical either way.
  /// Borrowed pointer; the HealthMonitor must outlive the filter.
  monitor::HealthMonitor* monitor = nullptr;

  [[nodiscard]] std::size_t total_particles() const {
    return particles_per_filter * num_filters;
  }

  /// Throws std::invalid_argument when the configuration is inconsistent
  /// (m not a power of two, exchange volume >= m, ...).
  void validate() const;

  /// One-line human-readable summary for benchmark headers.
  [[nodiscard]] std::string summary() const;

  /// Table II defaults for the GPU-class device path (m=512, N=1024, Ring, t=1).
  [[nodiscard]] static FilterConfig table2_gpu_defaults();

  /// Table II defaults for the CPU-class path (m=64, same network).
  [[nodiscard]] static FilterConfig table2_cpu_defaults();
};

}  // namespace esthera::core
