#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "util/random.hpp"
#include "util/time_types.hpp"

/// \file world.hpp
/// One episode of a benchmark workload: a Scenario built from a seed, the
/// workload's publishers and subscribers, and the simulated outputs the
/// benchmark checks against its committed reference. With a Tracer the
/// episode also records host-time spans around the set-up phases and
/// around every publish, getEvent and schedule_after call the workload
/// makes; without one those calls run bare.

namespace perf {

/// kBus64Drift is bus64 with bench_scale's drifting clocks; it is not a
/// measured workload (see kDriftFree in world.cpp).
enum class Workload {
  kBus64,
  kBus64Faults,
  kGrid256Seq,
  kGrid256Par,
  kBus64Drift,
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
/// Number of CAN segments of `w`.
[[nodiscard]] int segments(Workload w);
/// Simulated length of one episode of `w`.
[[nodiscard]] rtec::Duration episode_length(Workload w);

[[nodiscard]] inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kSetup,
  kTopology,
  kNodes,
  kChannels,
  kClockSync,
  kRunSlice,
  kPublish,
  kGetEvent,
  kScheduleAfter,
};
[[nodiscard]] const char* span_name(SpanKind k);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< id of the enclosing main-lane span; 0 = root
  SpanKind kind = SpanKind::kSetup;
};

/// Host-time spans of one traced episode, kept in memory. Main-lane spans
/// (set-up phases, run slices) get ids 1..n in begin order and nest through
/// an explicit parent. Workload calls are recorded on the lane of their
/// segment, so the shard threads of a parallel run never share a buffer;
/// their parent is the run slice open on the main thread.
class Tracer {
 public:
  explicit Tracer(int segments)
      : lanes_(static_cast<std::size_t>(segments)) {}

  std::uint32_t begin(SpanKind kind, std::uint32_t parent);
  /// The set-up span, parent of the set-up phases (0 before it begins).
  [[nodiscard]] std::uint32_t open_setup() const { return setup_; }
  void end(std::uint32_t id) { main_[id - 1].end_ns = host_ns(); }
  /// Parent for workload-call spans recorded until the next call.
  void set_open_slice(std::uint32_t id) { open_slice_ = id; }

  void record(int segment, SpanKind kind, std::int64_t t0, std::int64_t t1) {
    lanes_[static_cast<std::size_t>(segment)].push_back(
        {t0, t1, open_slice_, kind});
  }

  /// Durations (ns) of every lane span of one kind, unsorted.
  [[nodiscard]] std::vector<std::int64_t> durations(SpanKind kind) const;
  /// Writes all spans as CSV (id,parent,name,lane,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> main_;
  std::vector<std::vector<Span>> lanes_;
  std::uint32_t setup_ = 0;
  std::uint32_t open_slice_ = 0;
};

/// Host time of each set-up phase, ns.
struct SetupTimes {
  std::int64_t topology = 0;
  std::int64_t nodes = 0;
  std::int64_t channels = 0;
  std::int64_t clock_sync = 0;
  std::int64_t total = 0;  ///< Scenario construction to the first run call
};

class World {
 public:
  World(Workload w, std::uint64_t seed, Tracer* tracer);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] rtec::Duration episode_length() const {
    return perf::episode_length(workload_);
  }
  [[nodiscard]] rtec::Scenario& scenario() { return *scn_; }
  [[nodiscard]] const SetupTimes& setup() const { return setup_; }

  /// Bus attempts (ok + error) over all segments so far.
  [[nodiscard]] std::uint64_t frames() const;
  /// Canonical JSON of the simulated outputs the reference pins: per-segment
  /// bus counters, per-subscriber delivery counts, SRT first-hop latency
  /// quantiles and deadline misses (simulated µs).
  [[nodiscard]] std::string outputs_json() const;
  /// Sum of Middleware::rx_frames_seen over all nodes.
  [[nodiscard]] std::uint64_t rx_frames_seen() const;
  /// The distinct event kernels (one per shard).
  [[nodiscard]] std::vector<const rtec::Simulator*> kernels() const;

 private:
  struct SrtSource;
  struct State;     ///< outlives the Scenario: its events point into it
  struct Channels;  ///< dies before the Scenario: it references nodes

  void build_bus64(std::uint64_t seed, bool faults, bool drift);
  void build_grid256(std::uint64_t seed, int shards);
  /// Registers `channel` (on node `node` of segment `net`, bound to `subj`)
  /// for first-hop latency checks.
  SrtSource& add_source(rtec::Srtec* channel, rtec::NodeId node, int net,
                        rtec::Subject subj);
  /// Publishes the source's next sequence number.
  void publish(SrtSource& src);
  /// Publishes from `src` with exponential gaps of mean `mean_gap_ns`,
  /// the first after `first`.
  void start_poisson(SrtSource& src, rtec::Rng& rng, double mean_gap_ns,
                     rtec::Duration first);
  /// Subscribes `sub` to `subj`, draining and counting every delivery.
  template <class Channel>
  void count_deliveries(Channel& sub, int net, rtec::Subject subj,
                        const rtec::AttributeList& attrs);
  void watch_first_hop_latency();

  Workload workload_;
  Tracer* tracer_;
  SetupTimes setup_;
  std::unique_ptr<State> state_;
  std::unique_ptr<rtec::Scenario> scn_;
  std::unique_ptr<Channels> channels_;
};

}  // namespace perf
