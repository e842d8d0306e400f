// Per-work-group PRNG streams in the spirit of MTGP (Saito 2010): each work
// group (sub-filter) owns an independent Mersenne Twister state, and a
// dedicated "PRNG kernel" fills a device-side buffer of normal and uniform
// variates consumed by the sampling and resampling kernels of the same
// round, mirroring the paper's kernel structure (Sec. VI-A).
//
// MTGP proper derives independence from per-group parameter sets; we derive
// it from SplitMix64-decorrelated seeds, which preserves the property that
// matters here (uncorrelated sequences per group) without reproducing the
// MTGP parameter tables. Documented as a substitution in DESIGN.md.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mcore/first_touch.hpp"
#include "mcore/thread_pool.hpp"
#include "prng/distributions.hpp"
#include "prng/mt19937.hpp"
#include "prng/philox.hpp"

namespace esthera::prng {

/// One round's worth of pre-generated random variates, laid out per group.
/// resize() leaves the variates unwritten: MtgpStream::fill writes every
/// one, each group's slice on the worker that runs the group.
template <typename T>
struct RandomBuffer {
  std::size_t groups = 0;
  std::size_t normals_per_group = 0;
  std::size_t uniforms_per_group = 0;
  mcore::FirstTouchVector<T> normals;   // groups * normals_per_group
  mcore::FirstTouchVector<T> uniforms;  // groups * uniforms_per_group

  void resize(std::size_t g, std::size_t npg, std::size_t upg) {
    groups = g;
    normals_per_group = npg;
    uniforms_per_group = upg;
    normals.resize(g * npg);
    uniforms.resize(g * upg);
  }

  [[nodiscard]] std::span<T> group_normals(std::size_t g) {
    assert(g < groups);
    return {normals.data() + g * normals_per_group, normals_per_group};
  }
  [[nodiscard]] std::span<T> group_uniforms(std::size_t g) {
    assert(g < groups);
    return {uniforms.data() + g * uniforms_per_group, uniforms_per_group};
  }
  [[nodiscard]] std::span<const T> group_normals(std::size_t g) const {
    assert(g < groups);
    return {normals.data() + g * normals_per_group, normals_per_group};
  }
  [[nodiscard]] std::span<const T> group_uniforms(std::size_t g) const {
    assert(g < groups);
    return {uniforms.data() + g * uniforms_per_group, uniforms_per_group};
  }
};

/// Which generator core backs the per-group streams.
enum class Generator { kMtgp, kPhilox };

/// Serializable snapshot of an MtgpStream: enough to resume the per-group
/// variate sequences bit-exactly. `mt_words` holds, per group, the raw
/// Mt19937 state (Mt19937::kStateWords words) followed by one index word;
/// it is empty for the stateless Philox core, whose position is fully
/// captured by `round`.
struct MtgpStreamState {
  Generator generator = Generator::kMtgp;
  std::uint64_t groups = 0;
  std::uint64_t round = 0;
  std::vector<std::uint32_t> mt_words;
};

/// A set of `groups` independent generator states, fillable in parallel.
///
/// Filling is deterministic per (seed, group, round) regardless of the
/// worker count used, so experiment results are reproducible across
/// machines and emulator configurations.
class MtgpStream {
 public:
  MtgpStream(std::size_t groups, std::uint64_t seed,
             Generator generator = Generator::kMtgp);

  /// The stream MtgpStream(groups, seed, generator) followed by
  /// restore_state(state) would give, without seeding: the generators are
  /// built unseeded and restore_state() fills and validates them (same
  /// std::invalid_argument on a mismatch).
  MtgpStream(std::size_t groups, std::uint64_t seed, Generator generator,
             const MtgpStreamState& state);

  [[nodiscard]] std::size_t group_count() const noexcept { return mt_.size() ? mt_.size() : philox_streams_; }
  [[nodiscard]] Generator generator() const noexcept { return generator_; }

  /// Fills `buf` with N(0,1) normals and U(0,1) uniforms for every group,
  /// distributing groups over `pool`. Per group, the raw U(0,1) draws for
  /// the normals are bulk-filled straight into the group's normals slice
  /// (an odd count draws its last pair into a two-slot local tail), then
  /// the uniforms are bulk-filled, and finally prng::box_muller_fill runs
  /// over the slice in place; see it for the pairing contract.
  void fill(mcore::ThreadPool& pool, RandomBuffer<float>& buf);
  void fill(mcore::ThreadPool& pool, RandomBuffer<double>& buf);

  /// Captures the full stream position (checkpointing); restoring the
  /// snapshot into a stream constructed with the same group count and
  /// generator core resumes the variate sequences bit-exactly.
  [[nodiscard]] MtgpStreamState save_state() const;

  /// Restores a snapshot from save_state(). Throws std::invalid_argument
  /// when the snapshot's generator core, group count, or word count does
  /// not match this stream.
  void restore_state(const MtgpStreamState& state);

 private:
  template <typename T>
  void fill_impl(mcore::ThreadPool& pool, RandomBuffer<T>& buf);

  Generator generator_;
  std::uint64_t seed_ = 0;
  std::vector<Mt19937> mt_;       // kMtgp: one state per group
  std::size_t philox_streams_ = 0;  // kPhilox: stateless, counts rounds
  std::uint64_t round_ = 0;
};

}  // namespace esthera::prng
