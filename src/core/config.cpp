#include "core/config.hpp"

#include <sstream>
#include <stdexcept>

#include "sortnet/bitonic.hpp"

namespace esthera::core {

const char* to_string(ResampleAlgorithm a) {
  switch (a) {
    case ResampleAlgorithm::kRws: return "rws";
    case ResampleAlgorithm::kVose: return "vose";
    case ResampleAlgorithm::kSystematic: return "systematic";
    case ResampleAlgorithm::kStratified: return "stratified";
    case ResampleAlgorithm::kMetropolis: return "metropolis";
    case ResampleAlgorithm::kRejection: return "rejection";
  }
  return "?";
}

ResampleAlgorithm parse_resample_algorithm(const std::string& name) {
  if (name == "rws" || name == "roulette") return ResampleAlgorithm::kRws;
  if (name == "vose" || name == "alias") return ResampleAlgorithm::kVose;
  if (name == "systematic") return ResampleAlgorithm::kSystematic;
  if (name == "stratified") return ResampleAlgorithm::kStratified;
  if (name == "metropolis") return ResampleAlgorithm::kMetropolis;
  if (name == "rejection") return ResampleAlgorithm::kRejection;
  throw std::invalid_argument("unknown resampling algorithm: " + name);
}

const char* to_string(EstimatorKind e) {
  switch (e) {
    case EstimatorKind::kMaxWeight: return "max-weight";
    case EstimatorKind::kWeightedMean: return "weighted-mean";
  }
  return "?";
}

EstimatorKind parse_estimator(const std::string& name) {
  if (name == "max-weight" || name == "max") return EstimatorKind::kMaxWeight;
  if (name == "weighted-mean" || name == "mean") return EstimatorKind::kWeightedMean;
  throw std::invalid_argument("unknown estimator: " + name);
}

void FilterConfig::validate() const {
  if (particles_per_filter == 0 || num_filters == 0) {
    throw std::invalid_argument("filter sizes must be positive");
  }
  if (!sortnet::is_pow2(particles_per_filter)) {
    throw std::invalid_argument(
        "particles per sub-filter must be a power of two (bitonic local sort)");
  }
  const bool exchanging = scheme != topology::ExchangeScheme::kNone &&
                          exchange_particles > 0 && num_filters > 1;
  if (exchanging) {
    const std::size_t inflow =
        topology::is_pooled(scheme)
            ? exchange_particles
            : topology::max_degree(scheme, num_filters) * exchange_particles;
    if (inflow >= particles_per_filter) {
      throw std::invalid_argument(
          "exchange volume (neighbors x t) must stay below the sub-filter size");
    }
    if (exchange_particles > particles_per_filter) {
      throw std::invalid_argument("cannot send more particles than a sub-filter holds");
    }
  }
}

std::string FilterConfig::summary() const {
  std::ostringstream os;
  os << "m=" << particles_per_filter << " N=" << num_filters
     << " (total=" << total_particles() << ") X=" << topology::to_string(scheme)
     << " t=" << exchange_particles << " resample=" << to_string(resample);
  if (resample == ResampleAlgorithm::kMetropolis) {
    os << " B=";
    if (metropolis_steps > 0) {
      os << metropolis_steps;
    } else {
      os << "auto";
    }
  }
  os << " estimator=" << to_string(estimator) << " seed=" << seed;
  if (check_invariants) os << " checked";
  return os.str();
}

FilterConfig FilterConfig::table2_gpu_defaults() {
  FilterConfig cfg;
  cfg.particles_per_filter = 512;
  cfg.num_filters = 1024;
  cfg.scheme = topology::ExchangeScheme::kRing;
  cfg.exchange_particles = 1;
  return cfg;
}

FilterConfig FilterConfig::table2_cpu_defaults() {
  FilterConfig cfg;
  cfg.particles_per_filter = 64;
  cfg.num_filters = 1024;
  cfg.scheme = topology::ExchangeScheme::kRing;
  cfg.exchange_particles = 1;
  return cfg;
}

}  // namespace esthera::core
