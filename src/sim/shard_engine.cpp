#include "sim/shard_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

namespace rtec {

namespace {

/// Saturating horizon arithmetic: a drained shard reports
/// TimePoint::max(), and max() + latency must stay "no constraint", not
/// wrap negative.
inline TimePoint saturating_add(TimePoint t, Duration d) {
  if (t > TimePoint::max() - d) return TimePoint::max();
  return t + d;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Scatter/gather worker pool for one run_until call. Workers pull
/// positions in the engine's active-shard list from a shared counter each
/// epoch (active shards are independent within an epoch, so which worker
/// runs which shard cannot affect results).
///
/// The barrier is adaptive spin-then-park: city-scale runs have epochs of
/// a few microseconds, where a condvar round-trip per epoch costs more
/// than the epoch itself. Both sides first spin on an atomic (bounded,
/// clock-free iteration budget that doubles after a spin hit and halves
/// after a park, so idle phases fall back to the condvar quickly) and
/// only then take the mutex. Happens-before edges (TSan-verified):
/// release/acquire on `epoch_` publishes the coordinator's barrier work
/// (batch drains, horizon/active arrays) to workers; release/acquire on
/// `remaining_` publishes every worker's kernel mutations back to the
/// coordinator. The parked paths re-check their predicate under the
/// mutex, so a notify can never slip between check and sleep.
class EpochPool {
 public:
  EpochPool(unsigned workers, const std::vector<Simulator*>& shards,
            const std::vector<TimePoint>& horizon,
            const std::vector<std::uint32_t>& active)
      : shards_{shards}, horizon_{horizon}, active_{active} {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker(); });
  }

  ~EpochPool() {
    {
      const std::lock_guard<std::mutex> lk{m_};
      stop_.store(true, std::memory_order_release);
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Executes run_before(horizon[s]) for every s in the active list;
  /// returns when all are done.
  void run_epoch() {
    next_item_.store(0, std::memory_order_relaxed);
    remaining_.store(threads_.size(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    if (parked_.load(std::memory_order_seq_cst) != 0) {
      const std::lock_guard<std::mutex> lk{m_};
      cv_start_.notify_all();
    }
    for (int spins = spin_budget_;
         remaining_.load(std::memory_order_acquire) != 0; --spins) {
      if (spins <= 0) {
        std::unique_lock<std::mutex> lk{m_};
        coordinator_waiting_ = true;
        cv_done_.wait(lk, [this] {
          return remaining_.load(std::memory_order_acquire) == 0;
        });
        coordinator_waiting_ = false;
        spin_budget_ = std::max(kMinSpin, spin_budget_ / 2);
        park_waits_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      cpu_relax();
    }
    spin_budget_ = std::min(kMaxSpin, spin_budget_ * 2);
    spin_waits_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Barrier waits resolved without parking (coordinator + workers).
  /// Stable once run_epoch has returned: worker increments happen-before
  /// the remaining_ decrement the coordinator waits on.
  [[nodiscard]] std::uint64_t spin_waits() const {
    return spin_waits_.load(std::memory_order_acquire);
  }
  /// Barrier waits that fell back to the parked condvar path.
  [[nodiscard]] std::uint64_t park_waits() const {
    return park_waits_.load(std::memory_order_acquire);
  }

 private:
  // Iteration-count spin budgets (never wall-clock: src/sim is
  // deterministic-source linted). ~kMaxSpin pause iterations is on the
  // order of a short epoch; beyond that parking is cheaper.
  static constexpr int kMinSpin = 1 << 6;
  static constexpr int kMaxSpin = 1 << 14;

  void worker() {
    std::uint64_t seen = 0;
    int spin_budget = kMinSpin;
    for (;;) {
      bool parked = false;
      for (int spins = spin_budget;
           epoch_.load(std::memory_order_acquire) == seen; --spins) {
        if (stop_.load(std::memory_order_acquire)) return;
        if (spins <= 0) {
          std::unique_lock<std::mutex> lk{m_};
          parked_.fetch_add(1, std::memory_order_seq_cst);
          cv_start_.wait(lk, [&] {
            return stop_.load(std::memory_order_acquire) ||
                   epoch_.load(std::memory_order_acquire) != seen;
          });
          parked_.fetch_sub(1, std::memory_order_relaxed);
          parked = true;
          break;
        }
        cpu_relax();
      }
      if (stop_.load(std::memory_order_acquire)) return;
      // Wait accounting (relaxed: the remaining_ handshake below publishes
      // it); destruction-time waits never reach here.
      (parked ? park_waits_ : spin_waits_)
          .fetch_add(1, std::memory_order_relaxed);
      // The coordinator waits for remaining_ == 0 before starting the
      // next epoch, so at most one bump is outstanding here.
      seen = epoch_.load(std::memory_order_acquire);
      for (std::size_t i =
               next_item_.fetch_add(1, std::memory_order_relaxed);
           i < active_.size();
           i = next_item_.fetch_add(1, std::memory_order_relaxed)) {
        const std::uint32_t s = active_[i];
        shards_[s]->run_before(horizon_[s]);
      }
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lk{m_};
        if (coordinator_waiting_) cv_done_.notify_one();
      }
      spin_budget = parked ? std::max(kMinSpin, spin_budget / 2)
                           : std::min(kMaxSpin, spin_budget * 2);
    }
  }

  const std::vector<Simulator*>& shards_;
  const std::vector<TimePoint>& horizon_;
  const std::vector<std::uint32_t>& active_;
  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> next_item_{0};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<unsigned> parked_{0};
  std::atomic<std::uint64_t> spin_waits_{0};
  std::atomic<std::uint64_t> park_waits_{0};
  bool coordinator_waiting_ = false;  ///< guarded by m_
  std::atomic<bool> stop_{false};
  int spin_budget_ = kMinSpin;  ///< coordinator-side, adapted per epoch
};

}  // namespace

HandoffChannel& ShardEngine::link(std::size_t from, std::size_t to,
                                  Duration latency) {
  assert(from < shards_.size() && to < shards_.size());
  HandoffBatch* batch = nullptr;
  if (from != to) {
    has_cross_shard_ = true;
    lookahead_ = std::min(lookahead_, latency);
    const auto [it, inserted] =
        direction_index_.try_emplace(std::pair{from, to}, directions_.size());
    if (inserted) {
      directions_.push_back(Direction{
          from, to, latency, std::make_unique<HandoffBatch>(*shards_[to])});
    } else {
      Direction& d = directions_[it->second];
      d.min_latency = std::min(d.min_latency, latency);
    }
    batch = directions_[it->second].batch.get();
    incoming_dirty_ = true;
  }
  // Channel ids share the kernel's ordering word with the lane bit; an id
  // past kChannelBits would alias a low id and silently break the
  // deterministic order, so this is checked in every build.
  if (channels_.size() >= (std::size_t{1} << Simulator::kChannelBits)) {
    std::fprintf(stderr,
                 "rtec: ShardEngine::link: handoff channel id space "
                 "exhausted (%zu channels, Simulator::kChannelBits = %u)\n",
                 channels_.size() + 1, Simulator::kChannelBits);
    std::terminate();
  }
  channels_.push_back(std::make_unique<HandoffChannel>(
      *shards_[to], static_cast<std::uint32_t>(channels_.size()), latency,
      batch));
  return *channels_.back();
}

Duration ShardEngine::incoming_lookahead(std::size_t shard) const {
  Duration l = Duration::max();
  for (const Direction& d : directions_)
    if (d.to == shard) l = std::min(l, d.min_latency);
  return l;
}

void ShardEngine::rebuild_incoming() {
  incoming_.assign(shards_.size(), {});
  outgoing_.assign(shards_.size(), {});
  for (const Direction& d : directions_) {
    incoming_[d.to].push_back(Edge{d.from, d.min_latency});
    outgoing_[d.from].push_back(Edge{d.to, d.min_latency});
  }
  incoming_dirty_ = false;
}

TimePoint ShardEngine::drain_and_peek() {
  for (Direction& d : directions_) {
    const std::size_t n = d.batch->drain();
    stats_.handoffs += n;
    if (n > 0) {
      ++stats_.handoff_batches;
      stats_.handoff_bytes += n * HandoffBatch::pending_bytes();
    }
  }
  TimePoint next_min = TimePoint::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    next_[i] = shards_[i]->peek_next_time();
    next_min = std::min(next_min, next_[i]);
  }
  return next_min;
}

void ShardEngine::compute_horizons(TimePoint end_excl) {
  active_.clear();
  if (has_cross_shard_) {
    // Earliest output time of each shard: the least fixpoint of
    //   ET_j = min(N_j, min over incoming (k -> j) of ET_k + L_kj),
    // i.e. multi-source Dijkstra over the positive-latency link graph
    // seeded with the pending-event times. A shard's pending queue alone
    // (N_j) is NOT a sound bound on what it may yet execute: it can
    // receive a handoff below N_j and relay it, so transitive chains must
    // be closed over. Saturated sources (drained shards, N == max) relax
    // to whatever reaches them through links.
    et_ = next_;
    // (time, shard), min-first; lazy deletion via the et_ check below.
    std::priority_queue<std::pair<TimePoint, std::size_t>,
                        std::vector<std::pair<TimePoint, std::size_t>>,
                        std::greater<>>
        q;
    for (std::size_t i = 0; i < shards_.size(); ++i)
      if (et_[i] < TimePoint::max()) q.emplace(et_[i], i);
    while (!q.empty()) {
      const auto [t, j] = q.top();
      q.pop();
      if (t > et_[j]) continue;
      for (const Edge& out : outgoing_[j]) {
        const TimePoint reach = saturating_add(t, out.latency);
        if (reach < et_[out.peer]) {
          et_[out.peer] = reach;
          q.emplace(reach, out.peer);
        }
      }
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // H_i = min over incoming links (j -> i) of ET_j + L_ji. A feeder
    // nothing can ever reach (ET_j == max) imposes no constraint.
    TimePoint h = end_excl;
    for (const Edge& in : incoming_[i])
      h = std::min(h, saturating_add(et_[in.peer], in.latency));
    horizon_[i] = h;
    if (next_[i] < h) {
      active_.push_back(static_cast<std::uint32_t>(i));
      ++stats_.per_shard_runs[i];
      // h <= end_excl < max and next_[i] < h, so the advance is a positive
      // int64; log2 bucket = position of its highest set bit.
      const auto advance = static_cast<std::uint64_t>((h - next_[i]).ns());
      ++stats_.horizon_advance_log2[static_cast<std::size_t>(
          std::bit_width(advance) - 1)];
    } else if (next_[i] < TimePoint::max()) {
      // Pending work but no safe horizon this epoch: the idle time the
      // speedup investigation wants attributed.
      ++stats_.shard_skips;
      ++stats_.per_shard_skips[i];
    }
  }
  // Progress: the shard holding next_min has ET == next_min (positive
  // latencies cannot lower it further), so every bound on it is at least
  // next_min + L > next_min and it is always active.
  assert(!active_.empty());
}

void ShardEngine::run_until(TimePoint t) {
  assert(t < TimePoint::max());
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(threads_, shards_.size()));
  // The horizon bound is exclusive; run_before(t + 1ns) executes every
  // event with timestamp <= t, i.e. run_until(t) semantics.
  const TimePoint end_excl = t + Duration::nanoseconds(1);

  if (incoming_dirty_ || incoming_.size() != shards_.size())
    rebuild_incoming();
  next_.assign(shards_.size(), TimePoint::max());
  horizon_.assign(shards_.size(), TimePoint::max());
  active_.clear();
  active_.reserve(shards_.size());
  if (stats_.per_shard_runs.size() != shards_.size()) {
    stats_.per_shard_runs.resize(shards_.size(), 0);
    stats_.per_shard_skips.resize(shards_.size(), 0);
  }

  std::unique_ptr<EpochPool> pool;
  if (workers > 1)
    pool = std::make_unique<EpochPool>(workers, shards_, horizon_, active_);

  TimePoint prev_min = TimePoint::max();  // sentinel: no epoch yet
  for (;;) {
    const TimePoint next_min = drain_and_peek();
    if (next_min > t) break;
    if (epoch_span_ != nullptr && prev_min != TimePoint::max())
      epoch_span_->record((next_min - prev_min).ns());
    prev_min = next_min;
    compute_horizons(end_excl);
    ++stats_.epochs;
    stats_.shard_runs += active_.size();
    if (pool && active_.size() > 1) {
      pool->run_epoch();
    } else {
      // Serial path (and single-active-shard epochs, where the barrier
      // round-trip would cost more than it buys): index order, which is
      // irrelevant to results — active shards are independent within an
      // epoch.
      for (const std::uint32_t s : active_) shards_[s]->run_before(horizon_[s]);
    }
  }
  if (pool) {
    stats_.barrier_spins += pool->spin_waits();
    stats_.barrier_parks += pool->park_waits();
  }
  // All events <= t have executed and every pending handoff releasing
  // <= t has been injected (loop invariant); park each kernel at t.
  for (Simulator* s : shards_) s->run_until(t);
}

void ShardEngine::reset_stats() {
  stats_ = Stats{};
  stats_.per_shard_runs.assign(shards_.size(), 0);
  stats_.per_shard_skips.assign(shards_.size(), 0);
}

void ShardEngine::set_profiler(SpanProfiler* p) {
  epoch_span_ = p != nullptr ? p->slot("engine.epoch_advance") : nullptr;
}

}  // namespace rtec
