#include "prng/mtgp_stream.hpp"

#include <stdexcept>
#include <string>

namespace esthera::prng {

MtgpStream::MtgpStream(std::size_t groups, std::uint64_t seed, Generator generator)
    : generator_(generator), seed_(seed) {
  if (generator_ == Generator::kMtgp) {
    std::vector<std::uint32_t> seeds(groups);
    SplitMix64 mix(seed);
    for (auto& s : seeds) s = static_cast<std::uint32_t>(mix() >> 16);
    mt_ = Mt19937::seeded(seeds);
  } else {
    philox_streams_ = groups;
  }
}

MtgpStream::MtgpStream(std::size_t groups, std::uint64_t seed, Generator generator,
                       const MtgpStreamState& state)
    : generator_(generator), seed_(seed) {
  if (generator_ == Generator::kMtgp) {
    // Built in place unseeded: restore_state() writes every word.
    mt_.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) mt_.emplace_back(Mt19937::Unseeded{});
  } else {
    philox_streams_ = groups;
  }
  restore_state(state);
}

namespace {

/// Next out.size() U(0,1) variates of `gen`, in draw order.
template <typename T>
void draw_u01(Mt19937& gen, std::span<T> out) {
  gen.fill(out, [](std::uint32_t bits) { return u01<T>(bits); });
}

template <typename T>
void draw_u01(PhiloxStream& gen, std::span<T> out) {
  for (T& v : out) v = uniform01<T>(gen);
}

}  // namespace

template <typename T>
void MtgpStream::fill_impl(mcore::ThreadPool& pool, RandomBuffer<T>& buf) {
  const std::uint64_t round = round_++;
  const auto fill_group = [&](std::size_t g) {
    // Draw budget of the normals section: pairwise Box-Muller, so an odd
    // count still consumes a full pair (the paper's PRNG kernel generates a
    // fixed grid). The raw draws land in the group's normals slice itself
    // and are transformed in place; the odd pair's draws go to `tail`.
    const std::span<T> normals = buf.group_normals(g);
    const std::span<T> paired = normals.first(normals.size() & ~std::size_t{1});
    T tail[2] = {};
    const bool odd = paired.size() < normals.size();
    const auto draw = [&](auto& gen) {
      draw_u01(gen, paired);
      if (odd) draw_u01(gen, std::span<T>(tail));
      draw_u01(gen, buf.group_uniforms(g));
    };
    if (generator_ == Generator::kMtgp) {
      draw(mt_[g]);
    } else {
      PhiloxStream gen(seed_, (round << 32) | static_cast<std::uint64_t>(g));
      draw(gen);
    }
    box_muller_fill<T>(paired, paired);
    if (odd) box_muller_fill<T>(std::span<const T>(tail), normals.last(1));
  };
  // One reference capture keeps the std::function the pool takes within
  // its small-object buffer: the fill allocates nothing. Groups go out in
  // the same contiguous chunks as a Device launch.
  pool.run(
      buf.groups,
      [&fill_group](std::size_t g, std::size_t /*worker*/) { fill_group(g); },
      pool.group_chunk(buf.groups));
}

void MtgpStream::fill(mcore::ThreadPool& pool, RandomBuffer<float>& buf) {
  fill_impl(pool, buf);
}

void MtgpStream::fill(mcore::ThreadPool& pool, RandomBuffer<double>& buf) {
  fill_impl(pool, buf);
}

MtgpStreamState MtgpStream::save_state() const {
  MtgpStreamState s;
  s.generator = generator_;
  s.groups = group_count();
  s.round = round_;
  if (generator_ == Generator::kMtgp) {
    s.mt_words.reserve(mt_.size() * (Mt19937::kStateWords + 1));
    for (const Mt19937& gen : mt_) {
      const auto words = gen.state_words();
      s.mt_words.insert(s.mt_words.end(), words.begin(), words.end());
      s.mt_words.push_back(gen.state_index());
    }
  }
  return s;
}

void MtgpStream::restore_state(const MtgpStreamState& state) {
  if (state.generator != generator_) {
    throw std::invalid_argument(
        "MtgpStream::restore_state: generator core mismatch");
  }
  if (state.groups != group_count()) {
    throw std::invalid_argument("MtgpStream::restore_state: snapshot has " +
                                std::to_string(state.groups) +
                                " groups, stream has " +
                                std::to_string(group_count()));
  }
  constexpr std::size_t kPerGroup = Mt19937::kStateWords + 1;
  if (generator_ == Generator::kMtgp) {
    if (state.mt_words.size() != mt_.size() * kPerGroup) {
      throw std::invalid_argument(
          "MtgpStream::restore_state: snapshot word count " +
          std::to_string(state.mt_words.size()) + " does not match " +
          std::to_string(mt_.size() * kPerGroup));
    }
    for (std::size_t g = 0; g < mt_.size(); ++g) {
      const std::uint32_t* base = state.mt_words.data() + g * kPerGroup;
      mt_[g].set_state({base, Mt19937::kStateWords}, base[Mt19937::kStateWords]);
    }
  } else if (!state.mt_words.empty()) {
    throw std::invalid_argument(
        "MtgpStream::restore_state: Philox snapshot carries MT words");
  }
  round_ = state.round;
}

}  // namespace esthera::prng
