// Particle storage. The paper stores particle state vectors in
// Array-of-Structures layout because its states exceed 16 bytes, making
// AoS the bandwidth-friendly choice on its GPUs (Sec. VI); weights are kept
// in a separate array so the local sort can move (weight, index) pairs
// without touching state data. A Structure-of-Arrays variant is provided
// for the layout ablation benchmark.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "mcore/first_touch.hpp"

namespace esthera::core {

/// AoS particle store: `count` particles of `dim` scalars each, plus a
/// parallel array of per-particle log-weights.
template <typename T>
class ParticleStore {
 public:
  ParticleStore() = default;
  /// Leaves every state and log-weight unwritten: the owner's first kernel
  /// (initialization, or the stage that fills the store) writes each one
  /// before anything reads it, and takes the page faults on the thread
  /// that runs the group (see mcore/first_touch.hpp).
  ParticleStore(std::size_t count, std::size_t dim)
      : count_(count), dim_(dim), state_(count * dim), log_weight_(count) {}

  /// Reshapes the store and zero-fills it.
  void resize(std::size_t count, std::size_t dim) {
    count_ = count;
    dim_ = dim;
    state_.assign(count * dim, T(0));
    log_weight_.assign(count, T(0));
  }

  /// Reshapes the store without writing it: elements past the old size are
  /// left unwritten, and the capacity never shrinks (a scratch store that
  /// serves several shapes keeps room for the largest).
  void reshape(std::size_t count, std::size_t dim) {
    count_ = count;
    dim_ = dim;
    state_.resize(count * dim);
    log_weight_.resize(count);
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  [[nodiscard]] std::span<T> state(std::size_t i) {
    assert(i < count_);
    return {state_.data() + i * dim_, dim_};
  }
  [[nodiscard]] std::span<const T> state(std::size_t i) const {
    assert(i < count_);
    return {state_.data() + i * dim_, dim_};
  }

  /// Contiguous block of `n` particle states starting at particle `first`.
  [[nodiscard]] std::span<T> state_block(std::size_t first, std::size_t n) {
    assert(first + n <= count_);
    return {state_.data() + first * dim_, n * dim_};
  }
  [[nodiscard]] std::span<const T> state_block(std::size_t first, std::size_t n) const {
    assert(first + n <= count_);
    return {state_.data() + first * dim_, n * dim_};
  }

  [[nodiscard]] std::span<T> log_weights() { return log_weight_; }
  [[nodiscard]] std::span<const T> log_weights() const { return log_weight_; }
  [[nodiscard]] std::span<T> log_weights(std::size_t first, std::size_t n) {
    assert(first + n <= count_);
    return {log_weight_.data() + first, n};
  }
  [[nodiscard]] std::span<const T> log_weights(std::size_t first, std::size_t n) const {
    assert(first + n <= count_);
    return {log_weight_.data() + first, n};
  }

  [[nodiscard]] std::span<T> raw_state() { return state_; }
  [[nodiscard]] std::span<const T> raw_state() const { return state_; }

  void swap(ParticleStore& other) noexcept {
    std::swap(count_, other.count_);
    std::swap(dim_, other.dim_);
    state_.swap(other.state_);
    log_weight_.swap(other.log_weight_);
  }

 private:
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  mcore::FirstTouchVector<T> state_;       // AoS: particle-major
  mcore::FirstTouchVector<T> log_weight_;  // log p(z | x) accumulated this round
};

/// SoA particle store (dimension-major), used only by the layout ablation.
template <typename T>
class ParticleStoreSoA {
 public:
  ParticleStoreSoA() = default;
  ParticleStoreSoA(std::size_t count, std::size_t dim)
      : count_(count), dim_(dim), state_(count * dim) {}

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Component d of particle i.
  [[nodiscard]] T& at(std::size_t i, std::size_t d) {
    assert(i < count_ && d < dim_);
    return state_[d * count_ + i];
  }
  [[nodiscard]] const T& at(std::size_t i, std::size_t d) const {
    assert(i < count_ && d < dim_);
    return state_[d * count_ + i];
  }

  /// All values of component d, contiguous.
  [[nodiscard]] std::span<T> component(std::size_t d) {
    assert(d < dim_);
    return {state_.data() + d * count_, count_};
  }

 private:
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
  std::vector<T> state_;  // SoA: dimension-major
};

}  // namespace esthera::core
