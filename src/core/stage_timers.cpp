#include "core/stage_timers.hpp"

#include <sstream>

namespace esthera::core {

double StageTimers::total() const {
  double t = 0.0;
  for (const double s : seconds_) t += s;
  return t;
}

double StageTimers::fraction(Stage stage) const {
  const double t = total();
  return t > 0.0 ? seconds(stage) / t : 0.0;
}

const char* StageTimers::name(Stage stage) {
  switch (stage) {
    case Stage::kRand: return "rand";
    case Stage::kSampling: return "sampling";
    case Stage::kLocalSort: return "local sort";
    case Stage::kGlobalEstimate: return "global estimate";
    case Stage::kExchange: return "exchange";
    case Stage::kResampling: return "resampling";
  }
  return "?";
}

const char* StageTimers::key(Stage stage) {
  switch (stage) {
    case Stage::kRand: return "rand";
    case Stage::kSampling: return "sampling";
    case Stage::kLocalSort: return "local_sort";
    case Stage::kGlobalEstimate: return "global_estimate";
    case Stage::kExchange: return "exchange";
    case Stage::kResampling: return "resampling";
  }
  return "?";
}

std::string StageTimers::breakdown_string() const {
  if (total() <= 0.0) return "(no samples)";
  std::ostringstream os;
  os.precision(1);
  os << std::fixed;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (s > 0) os << " | ";
    const auto stage = static_cast<Stage>(s);
    os << name(stage) << " " << 100.0 * fraction(stage) << "% ("
       << launches(stage) << "x)";
  }
  return os.str();
}

}  // namespace esthera::core
