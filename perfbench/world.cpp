#include "world.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <thread>
#include <utility>

#include "canbus/fault.hpp"
#include "core/gateway.hpp"
#include "core/hrtec.hpp"
#include "core/srtec.hpp"
#include "sched/id_codec.hpp"
#include "sim/topology_gen.hpp"
#include "time/periodic.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"

namespace perf {

using namespace rtec;
using namespace rtec::literals;

namespace {

constexpr int kBusNodes = 64;
constexpr int kGridSegments = 256;
constexpr int kGridShards = 4;
constexpr double kOmissionProbability = 0.05;

/// Node clock: seeded offset, 1 µs granularity and, with `drift`,
/// bench_scale's seeded rate error. Measured workloads run drift-free: with
/// drifting clocks the simulator can livelock. LocalClock::to_perfect is not
/// a right inverse of to_local, so a local deadline can map to an instant at
/// which the clock still reads one tick early, and SrtEngine::arm_promotion
/// then re-arms at that same instant forever. bench_scale's clock model hits
/// it on about one seed in four within 60 simulated seconds; bus64-drift
/// keeps that model so the self-test can show the defect. The rate error is
/// drawn either way, so both models consume the same random stream.
Node::ClockParams node_clock(Rng& rng, bool drift) {
  Node::ClockParams p;
  p.initial_offset = Duration::microseconds(rng.uniform_int(-20, 20));
  const std::int64_t ppb = rng.uniform_int(-80'000, 80'000);
  p.drift_ppb = drift ? ppb : 0;
  p.granularity = 1_us;
  return p;
}

bool is_grid(Workload w) {
  return w == Workload::kGrid256Seq || w == Workload::kGrid256Par;
}

/// Times one workload call when tracing; runs it bare otherwise.
template <class F>
auto timed(Tracer* tracer, int segment, SpanKind kind, F&& call) {
  if (tracer == nullptr) return call();
  const std::int64_t t0 = host_ns();
  auto result = call();
  tracer->record(segment, kind, t0, host_ns());
  return result;
}

/// SRT payload: the publisher's sequence number, so the first-hop latency
/// of every delivered frame can be matched to its publish time.
std::vector<std::uint8_t> seq_payload(std::size_t seq) {
  return {static_cast<std::uint8_t>(seq), static_cast<std::uint8_t>(seq >> 8),
          static_cast<std::uint8_t>(seq >> 16)};
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "bus64") return Workload::kBus64;
  if (name == "bus64-faults") return Workload::kBus64Faults;
  if (name == "grid256-seq") return Workload::kGrid256Seq;
  if (name == "grid256-par") return Workload::kGrid256Par;
  if (name == "bus64-drift") return Workload::kBus64Drift;
  return std::nullopt;
}

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kTopology: return "setup.topology";
    case SpanKind::kNodes: return "setup.nodes";
    case SpanKind::kChannels: return "setup.channels";
    case SpanKind::kClockSync: return "setup.clock_sync";
    case SpanKind::kRunSlice: return "run_until";
    case SpanKind::kPublish: return "publish";
    case SpanKind::kGetEvent: return "getEvent";
    case SpanKind::kScheduleAfter: return "schedule_after";
  }
  return "?";
}

std::uint32_t Tracer::begin(SpanKind kind, std::uint32_t parent) {
  main_.push_back({host_ns(), 0, parent, kind});
  const auto id = static_cast<std::uint32_t>(main_.size());
  if (kind == SpanKind::kSetup) setup_ = id;
  return id;
}

std::vector<std::int64_t> Tracer::durations(SpanKind kind) const {
  std::vector<std::int64_t> out;
  for (const auto& lane : lanes_)
    for (const Span& s : lane)
      if (s.kind == kind) out.push_back(s.end_ns - s.start_ns);
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,lane,start_ns,end_ns\n");
  std::size_t id = 0;
  for (const Span& s : main_)
    std::fprintf(f, "%zu,%u,%s,main,%lld,%lld\n", ++id, s.parent,
                 span_name(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
    for (const Span& s : lanes_[lane])
      std::fprintf(f, "%zu,%u,%s,%zu,%lld,%lld\n", ++id, s.parent,
                   span_name(s.kind), lane, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

/// An SRT publisher whose frames' first-hop latency is checked: its frames
/// carry a sequence number, which indexes the publish times.
struct World::SrtSource {
  Srtec* channel = nullptr;
  NodeId node = 0;
  int net = 0;
  Simulator* sim = nullptr;
  std::vector<std::int64_t> publish_ns;
};

/// Callback-written state. Each segment's entries are touched only from
/// that segment's shard, so parallel runs never share one.
struct World::State {
  struct Segment {
    std::vector<SrtSource*> by_etag;  ///< first-hop publisher of each etag
    std::vector<std::int64_t> latency_ns;
    std::uint64_t publish_errors = 0;
  };
  TaskPool pool;
  std::deque<SrtSource> sources;
  std::deque<std::uint64_t> delivered;  ///< one counter per subscriber
  std::deque<Rng> rngs;
  std::vector<Segment> segments;
  std::vector<Node*> nodes;
};

struct World::Channels {
  std::vector<std::unique_ptr<Hrtec>> hrt;
  std::vector<std::unique_ptr<Srtec>> srt;
  std::vector<std::unique_ptr<Gateway>> gateways;
  std::vector<std::unique_ptr<PeriodicLocalTask>> tasks;
};

World::World(Workload w, std::uint64_t seed, Tracer* tracer)
    : workload_{w}, tracer_{tracer}, state_{std::make_unique<State>()} {
  const std::int64_t t0 = host_ns();
  const std::uint32_t setup_span =
      tracer_ != nullptr ? tracer_->begin(SpanKind::kSetup, 0) : 0;
  switch (w) {
    case Workload::kBus64: build_bus64(seed, false, false); break;
    case Workload::kBus64Faults: build_bus64(seed, true, false); break;
    case Workload::kBus64Drift: build_bus64(seed, false, true); break;
    case Workload::kGrid256Seq: build_grid256(seed, 1); break;
    case Workload::kGrid256Par: build_grid256(seed, kGridShards); break;
  }
  watch_first_hop_latency();
  setup_.total = host_ns() - t0;
  if (tracer_ != nullptr) tracer_->end(setup_span);
}

World::~World() = default;

namespace {

/// Runs one set-up phase, recording its host time and (traced) its span.
template <class F>
void phase(Tracer* tracer, SpanKind kind, std::int64_t& out, F&& body) {
  const std::uint32_t span =
      tracer != nullptr ? tracer->begin(kind, tracer->open_setup()) : 0;
  const std::int64_t t0 = host_ns();
  body();
  out = host_ns() - t0;
  if (tracer != nullptr) tracer->end(span);
}

}  // namespace

World::SrtSource& World::add_source(Srtec* channel, NodeId node, int net,
                                    Subject subj) {
  SrtSource& src = state_->sources.emplace_back();
  src.channel = channel;
  src.node = node;
  src.net = net;
  src.sim = &scn_->segment_sim(net);
  const Etag etag = *scn_->binding().bind(subj);
  auto& by_etag = state_->segments[static_cast<std::size_t>(net)].by_etag;
  if (by_etag.size() <= etag) by_etag.resize(etag + 1u, nullptr);
  by_etag[etag] = &src;
  return src;
}

void World::publish(SrtSource& src) {
  Event e;
  e.content = seq_payload(src.publish_ns.size());
  src.publish_ns.push_back(src.sim->now().ns());
  if (!timed(tracer_, src.net, SpanKind::kPublish,
             [&] { return src.channel->publish(std::move(e)); }))
    ++state_->segments[static_cast<std::size_t>(src.net)].publish_errors;
}

void World::start_poisson(SrtSource& src, Rng& rng, double mean_gap_ns,
                          Duration first) {
  auto* loop = state_->pool.make();
  *loop = [this, &src, &rng, mean_gap_ns, loop] {
    publish(src);
    const Duration gap = Duration::nanoseconds(
        static_cast<std::int64_t>(rng.exponential(mean_gap_ns)));
    timed(tracer_, src.net, SpanKind::kScheduleAfter, [&] {
      return src.sim->schedule_after(gap, [loop] { (*loop)(); });
    });
  };
  src.sim->schedule_after(first, [loop] { (*loop)(); });
}

template <class Channel>
void World::count_deliveries(Channel& sub, int net, Subject subj,
                             const AttributeList& attrs) {
  std::uint64_t* got = &state_->delivered.emplace_back(0);
  (void)sub.subscribe(subj, attrs,
                      [this, &sub, got, net] {
                        if (timed(tracer_, net, SpanKind::kGetEvent,
                                  [&sub] { return sub.getEvent(); }))
                          ++*got;
                      },
                      nullptr);
}

// bench_scale's 64-node point: one segment, one HRT stream per 4 nodes,
// Poisson SRT from every node at ~40 % aggregate load, clock sync.
void World::build_bus64(std::uint64_t seed, bool faults, bool drift) {
  State& st = *state_;
  Tracer* tr = tracer_;
  Rng& rng = st.rngs.emplace_back(seed);
  phase(tr, SpanKind::kTopology, setup_.topology, [&] {
    Scenario::Config cfg;
    cfg.calendar.round_length = 10_ms;
    scn_ = std::make_unique<Scenario>(cfg);
    st.segments.resize(1);
    if (faults)
      scn_->set_fault_model(std::make_unique<RandomOmissionFaults>(
          kOmissionProbability, seed ^ 0xFA17'0000'0000ULL));
  });
  channels_ = std::make_unique<Channels>();
  Scenario& scn = *scn_;
  phase(tr, SpanKind::kNodes, setup_.nodes, [&] {
    for (int i = 0; i < kBusNodes; ++i)
      st.nodes.push_back(&scn.add_node(static_cast<NodeId>(i + 1),
                                       node_clock(rng, drift)));
  });
  phase(tr, SpanKind::kClockSync, setup_.clock_sync, [&] {
    (void)scn.enable_clock_sync(static_cast<NodeId>(kBusNodes), 500_us);
  });
  phase(tr, SpanKind::kChannels, setup_.channels, [&] {
    Channels& ch = *channels_;
    for (int i = 0; i < kBusNodes / 4; ++i) {
      const Subject subj = subject_of("scale/h" + std::to_string(i));
      SlotSpec slot;
      slot.lst_offset = 1_ms + Duration::microseconds(600) * i;
      slot.dlc = 8;
      slot.etag = *scn.binding().bind(subj);
      slot.publisher = static_cast<NodeId>(i + 1);
      // Admit every window that fits the round. Stream 0's window collides
      // with the clock-sync slot; bench_scale stops at that first rejection
      // and so runs its 64-node point without any HRT stream.
      if (!scn.calendar().reserve(slot).has_value()) continue;
      Node* pub_node = st.nodes[static_cast<std::size_t>(i)];
      Hrtec* pub = ch.hrt.emplace_back(
          std::make_unique<Hrtec>(pub_node->middleware())).get();
      (void)pub->announce(subj, {}, nullptr);
      Hrtec& sub = *ch.hrt.emplace_back(std::make_unique<Hrtec>(
          st.nodes[static_cast<std::size_t>(kBusNodes - 1 - i % 4)]
              ->middleware()));
      count_deliveries(sub, 0, subj, AttributeList{attr::QueueCapacity{4}});
      auto* errors = &st.segments[0].publish_errors;
      ch.tasks.push_back(std::make_unique<PeriodicLocalTask>(
          pub_node->clock(), 10_ms, [pub, tr, errors] {
            Event e;
            e.content = {1, 2, 3, 4, 5, 6, 7, 8};
            if (!timed(tr, 0, SpanKind::kPublish,
                       [&] { return pub->publish(std::move(e)); }))
              ++*errors;
          }));
      ch.tasks.back()->start();
    }
    for (int i = 0; i < kBusNodes; ++i) {
      const Subject subj = subject_of("scale/s" + std::to_string(i));
      Srtec* pub = ch.srt.emplace_back(std::make_unique<Srtec>(
          st.nodes[static_cast<std::size_t>(i)]->middleware())).get();
      (void)pub->announce(subj, AttributeList{attr::Deadline{20_ms}}, nullptr);
      start_poisson(add_source(pub, static_cast<NodeId>(i + 1), 0, subj), rng,
                    160e3 * kBusNodes / 0.4,
                    Duration::microseconds(rng.uniform_int(0, 2000)));
    }
  });
}

// bench_multiseg's campus-grid city: two nodes and clock sync per segment,
// one gateway with a bridged SRT subject per link, Poisson chatter on every
// fourth segment.
void World::build_grid256(std::uint64_t seed, int shards) {
  State& st = *state_;
  Tracer* tr = tracer_;
  TopoSpec topo;
  phase(tr, SpanKind::kTopology, setup_.topology, [&] {
    topo = make_topology(TopoShape::kCampusGrid, kGridSegments, seed);
    Scenario::Config cfg;
    cfg.networks = topo.segments;
    cfg.shards = shards;
    cfg.threads = std::min(static_cast<unsigned>(shards),
                           std::max(1u, std::thread::hardware_concurrency()));
    cfg.calendar.round_length = 10_ms;
    scn_ = std::make_unique<Scenario>(cfg);
    st.segments.resize(static_cast<std::size_t>(topo.segments));
  });
  channels_ = std::make_unique<Channels>();
  Scenario& scn = *scn_;
  Rng& setup_rng = st.rngs.emplace_back(seed + 0xBE7Cu);
  phase(tr, SpanKind::kNodes, setup_.nodes, [&] {
    for (int net = 0; net < topo.segments; ++net) {
      for (NodeId k : {NodeId{1}, NodeId{2}})
        st.nodes.push_back(
            &scn.add_node(k, node_clock(setup_rng, /*drift=*/false), net));
    }
  });
  phase(tr, SpanKind::kChannels, setup_.channels, [&] {
    Channels& ch = *channels_;
    // Publisher on node 1 of `net`, subscriber on node 2 of `sub_net`.
    const auto add_stream = [&](int net, int sub_net, Subject subj,
                                Duration deadline) -> SrtSource& {
      Srtec* pub = ch.srt.emplace_back(std::make_unique<Srtec>(
          scn.node(NodeId{1}, net).middleware())).get();
      (void)pub->announce(subj, AttributeList{attr::Deadline{deadline}},
                          nullptr);
      Srtec& sub = *ch.srt.emplace_back(std::make_unique<Srtec>(
          scn.node(NodeId{2}, sub_net).middleware()));
      count_deliveries(sub, sub_net, subj, {});
      return add_source(pub, NodeId{1}, net, subj);
    };

    std::vector<int> next_gw_id(static_cast<std::size_t>(topo.segments), 100);
    for (std::size_t l = 0; l < topo.links.size(); ++l) {
      const TopoLink& link = topo.links[l];
      Node& ga = scn.add_node(
          static_cast<NodeId>(next_gw_id[static_cast<std::size_t>(link.a)]++),
          {}, link.a);
      Node& gb = scn.add_node(
          static_cast<NodeId>(next_gw_id[static_cast<std::size_t>(link.b)]++),
          {}, link.b);
      st.nodes.push_back(&ga);
      st.nodes.push_back(&gb);
      ch.gateways.push_back(std::make_unique<Gateway>(
          ga, gb, scn.link_gateway(ga, gb, link.latency)));
      const Subject subj = subject_of("city/x" + std::to_string(l));
      (void)ch.gateways.back()->bridge_srt(subj, 10_ms, 30_ms);
      SrtSource& src = add_stream(link.a, link.b, subj, 10_ms);
      ch.tasks.push_back(std::make_unique<PeriodicLocalTask>(
          scn.node(NodeId{1}, link.a).clock(),
          5_ms + Duration::milliseconds(static_cast<std::int64_t>(l % 5)),
          [this, &src] { publish(src); }));
      ch.tasks.back()->start();
    }

    for (int net = 0; net < topo.segments; net += 4) {
      Rng& rng = st.rngs.emplace_back(seed * 1000 +
                                      static_cast<std::uint64_t>(net) + 1);
      SrtSource& src = add_stream(
          net, net, subject_of("city/c" + std::to_string(net)), 20_ms);
      start_poisson(src, rng, 0.5e6,
                    Duration::microseconds(setup_rng.uniform_int(100, 3000)));
    }
  });
  phase(tr, SpanKind::kClockSync, setup_.clock_sync, [&] {
    for (int net = 0; net < topo.segments; ++net)
      (void)scn.enable_clock_sync_on(net, NodeId{2}, 500_us);
  });
}

// First-hop SRT latency: from the publish call to the end of the frame's
// successful transmission on the publisher's own segment. Forwarded copies
// (sent by a gateway) are not first hops and are skipped.
void World::watch_first_hop_latency() {
  for (std::size_t net = 0; net < state_->segments.size(); ++net) {
    State::Segment* seg = &state_->segments[net];
    scn_->bus(static_cast<int>(net))
        .add_observer([seg](const CanBus::FrameEvent& ev) {
          if (!ev.success) return;
          const Etag etag = decode_can_id(ev.frame.id).etag;
          if (etag >= seg->by_etag.size()) return;
          const SrtSource* src = seg->by_etag[etag];
          if (src == nullptr || src->node != ev.sender || ev.frame.dlc < 3)
            return;
          const std::size_t seq = ev.frame.data[0] |
                                  std::size_t{ev.frame.data[1]} << 8 |
                                  std::size_t{ev.frame.data[2]} << 16;
          seg->latency_ns.push_back(ev.end.ns() - src->publish_ns.at(seq));
        });
  }
}

int segments(Workload w) { return is_grid(w) ? kGridSegments : 1; }

Duration episode_length(Workload w) {
  return is_grid(w) ? Duration::milliseconds(500) : 30_s;
}

std::uint64_t World::frames() const {
  std::uint64_t n = 0;
  for (int net = 0; net < scn_->network_count(); ++net)
    n += scn_->bus(net).frames_ok() + scn_->bus(net).frames_error();
  return n;
}

std::uint64_t World::rx_frames_seen() const {
  std::uint64_t n = 0;
  for (const Node* node : state_->nodes) n += node->middleware().rx_frames_seen();
  return n;
}

std::vector<const Simulator*> World::kernels() const {
  std::vector<const Simulator*> out;
  for (int net = 0; net < scn_->network_count(); ++net) {
    const Simulator* k = &scn_->segment_sim(net);
    if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  return out;
}

namespace {

void append_list(std::string& out, const char* key,
                 const std::vector<std::uint64_t>& v) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  out += ']';
}

std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

}  // namespace

std::string World::outputs_json() const {
  std::vector<std::uint64_t> ok, err, busy;
  for (int net = 0; net < scn_->network_count(); ++net) {
    CanBus& bus = scn_->bus(net);
    ok.push_back(bus.frames_ok());
    err.push_back(bus.frames_error());
    busy.push_back(static_cast<std::uint64_t>(bus.busy_time().ns()));
  }
  std::vector<std::int64_t> lat;
  std::uint64_t publish_errors = 0;
  for (const State::Segment& seg : state_->segments) {
    lat.insert(lat.end(), seg.latency_ns.begin(), seg.latency_ns.end());
    publish_errors += seg.publish_errors;
  }
  std::sort(lat.begin(), lat.end());
  const auto q = [&lat](double p) {
    return lat.empty() ? std::int64_t{0} : lat[quantile_rank(lat.size(), p)];
  };
  std::uint64_t published = 0, sent = 0, missed = 0;
  for (const Node* node : state_->nodes) {
    const auto& c = node->middleware().srt().counters();
    published += c.published;
    sent += c.sent;
    missed += c.deadline_missed;
  }

  std::string out = "{";
  append_list(out, "frames_ok", ok);
  out += ',';
  append_list(out, "frames_error", err);
  out += ',';
  append_list(out, "busy_ns", busy);
  out += ',';
  append_list(out, "delivered", {state_->delivered.begin(),
                                 state_->delivered.end()});
  out += ",\"srt\":{\"published\":" + std::to_string(published) +
         ",\"sent\":" + std::to_string(sent) +
         ",\"deadline_missed\":" + std::to_string(missed) +
         ",\"publish_errors\":" + std::to_string(publish_errors) +
         ",\"first_hop_samples\":" + std::to_string(lat.size()) +
         ",\"latency_p50_us\":" + micros(q(0.5)) +
         ",\"latency_p99_us\":" + micros(q(0.99)) +
         ",\"latency_p999_us\":" + micros(q(0.999)) +
         ",\"latency_max_us\":" + micros(lat.empty() ? 0 : lat.back()) + "}}";
  return out;
}

}  // namespace perf
