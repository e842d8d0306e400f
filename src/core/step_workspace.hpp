// Round scratch of the distributed filter, kept apart from its persistent
// state. Paper Sec. VI keeps a sub-filter's particles, weights and
// generator state in global memory across rounds, while each kernel's
// working arrays live in work-group local memory, which exists only while
// the kernel runs. DistributedParticleFilter mirrors that split: it keeps
// the particle store, the PRNG stream, the step index, the estimate and the
// per-group diagnostics, and a step() or initialize() borrows everything
// else from a StepWorkspace. Every buffer here is written by a round before
// the round reads it, so one workspace can serve many filters in turn: a
// standalone filter owns one, and a WorkspacePool lends them to the
// sessions of a serve::SessionManager.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/particle_store.hpp"
#include "device/invariants.hpp"
#include "mcore/first_touch.hpp"
#include "prng/mtgp_stream.hpp"

namespace esthera::core {

/// The sizes one filter needs from a workspace.
struct WorkspaceShape {
  std::size_t particles = 0;           ///< m * N
  std::size_t dim = 0;                 ///< state dimension
  std::size_t groups = 0;              ///< N
  std::size_t normals_per_group = 0;   ///< PRNG buffer layout
  std::size_t uniforms_per_group = 0;
  std::size_t exchange = 0;            ///< t, particles published per group
};

/// Scratch for one filtering round. fit() lays the buffers out for a
/// filter's shape: a buffer grows to fit the largest shape it has served and
/// never shrinks, so a smaller filter uses a prefix and a workspace that
/// has seen every shape once allocates nothing more.
template <typename T>
struct StepWorkspace {
  /// Sampling writes the propagated particles here; the local sort, the
  /// global estimate and the exchange address them through sort_idx, and
  /// resampling gathers them back into the filter's own store.
  ParticleStore<T> aux;
  prng::RandomBuffer<T> rand;
  // Per-particle kernel scratch. After the local sort, sorted position k of
  // group g holds log-weight sort_keys[g*m + k] and lives in aux row
  // g*m + sort_idx[g*m + k].
  mcore::FirstTouchVector<T> sort_keys;
  mcore::FirstTouchVector<std::uint32_t> sort_idx;
  mcore::FirstTouchVector<T> weights;
  mcore::FirstTouchVector<T> cumsum;
  mcore::FirstTouchVector<T> alias_prob;
  mcore::FirstTouchVector<std::uint32_t> alias_idx;
  mcore::FirstTouchVector<T> vose_scaled;
  mcore::FirstTouchVector<std::uint32_t> vose_slots;
  mcore::FirstTouchVector<std::uint32_t> resample_out;
  // Exchange: every group's published top-t, and the pooled selection.
  mcore::FirstTouchVector<T> outbox_state;
  mcore::FirstTouchVector<T> outbox_lw;
  mcore::FirstTouchVector<std::uint32_t> pool_top;
  mcore::FirstTouchVector<std::uint32_t> pool_order;

  /// Lays the buffers out for `s` without writing them (each group's slice
  /// is first written by the kernel that owns it, see
  /// mcore/first_touch.hpp). With `poison`, every buffer is then filled
  /// with debug::poison values, so a kernel that reads an element before
  /// its round wrote it trips a check instead of reading what the previous
  /// borrower left.
  void fit(const WorkspaceShape& s, bool poison) {
    aux.reshape(s.particles, s.dim);
    rand.resize(s.groups, s.normals_per_group, s.uniforms_per_group);
    for (auto* v : {&sort_keys, &weights, &cumsum, &alias_prob, &vose_scaled}) {
      v->resize(s.particles);
    }
    for (auto* v : {&sort_idx, &alias_idx, &vose_slots, &resample_out}) {
      v->resize(s.particles);
    }
    const std::size_t box = s.groups * s.exchange;
    outbox_state.resize(box * s.dim);
    outbox_lw.resize(box);
    pool_top.resize(s.exchange);
    pool_order.resize(box);
    if (poison) {
      debug::poison(aux.raw_state(), aux.log_weights(), rand.normals, rand.uniforms,
                    sort_keys, sort_idx, weights, cumsum, alias_prob, alias_idx,
                    vose_scaled, vose_slots, resample_out, outbox_state, outbox_lw,
                    pool_top, pool_order);
    }
  }
};

/// A free list of workspaces shared by filters that step on several threads
/// (SessionManager's sessions). A step borrows one workspace and gives it
/// back when it returns, so the pool grows to the peak number of steps in
/// flight at once, not to the number of filters, and never shrinks. The
/// list is a mutex-guarded stack rather than a slot per pool worker: an
/// inline ThreadPool::run (a concurrent or nested dispatch) reports worker
/// 0 on every thread that runs it, so a worker index is not a safe key.
template <typename T>
class WorkspacePool {
 public:
  /// A borrowed workspace; the destructor gives it back.
  class Lease {
   public:
    Lease(WorkspacePool& pool, std::unique_ptr<StepWorkspace<T>> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease() { pool_.give_back(std::move(ws_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] StepWorkspace<T>& operator*() const { return *ws_; }

   private:
    WorkspacePool& pool_;
    std::unique_ptr<StepWorkspace<T>> ws_;
  };

  /// The most recently returned workspace, or a new one when every
  /// workspace is on loan.
  [[nodiscard]] Lease borrow() {
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        auto ws = std::move(free_.back());
        free_.pop_back();
        return {*this, std::move(ws)};
      }
      ++created_;
    }
    return {*this, std::make_unique<StepWorkspace<T>>()};
  }

  /// Workspaces created so far: the peak number borrowed at once.
  [[nodiscard]] std::size_t created() const {
    std::lock_guard lock(mutex_);
    return created_;
  }

 private:
  void give_back(std::unique_ptr<StepWorkspace<T>> ws) {
    std::lock_guard lock(mutex_);
    free_.push_back(std::move(ws));
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<StepWorkspace<T>>> free_;
  std::size_t created_ = 0;
};

}  // namespace esthera::core
