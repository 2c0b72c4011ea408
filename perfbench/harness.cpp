// Benchmark harness binary. Runs episodes of one workload (world.hpp) from a
// seed for a host-time budget and prints one JSON object on stdout: the
// host-time samples of every episode, the distinct simulated outputs seen,
// and, for a traced run, the per-layer numbers. perfbench/run.py builds
// this binary, checks the outputs against the committed reference and
// turns the samples into the benchmark's metrics.
//
//   rtec_perf --workload W --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --seconds 0 runs exactly one episode (reference generation and checks).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "canbus/frame.hpp"
#include "core/scenario.hpp"
#include "trace/binary.hpp"
#include "util/stats.hpp"
#include "world.hpp"

namespace {

using namespace rtec;
using perf::host_ns;
using perf::SpanKind;
using perf::Tracer;
using perf::Workload;
using perf::World;

constexpr int kSlicesPerEpisode = 10;

/// Peak resident memory of this process image, KiB (VmHWM; unlike
/// getrusage's ru_maxrss it does not inherit the parent's peak across exec).
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

struct Args {
  Workload workload = Workload::kBus64;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = perf::parse_workload(val);
      if (!w) return false;
      a.workload = *w;
      a.workload_name = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || a.seconds < 0) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Host-time samples of one episode.
struct Sample {
  perf::SetupTimes setup;
  std::int64_t run_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t frames = 0;
  std::vector<std::int64_t> slice_ns;      ///< wall time of each run_until
  std::vector<std::int64_t> slice_cpu_ns;  ///< process CPU time of each
  std::int64_t setup_ref_ns = 0;           ///< reference kernel before set-up
  std::vector<std::int64_t> slice_ref_ns;  ///< reference kernel before each
};

/// A fixed piece of host work timed just before set-up and before every
/// run_until slice, so perfbench/run.py can scale each sample by the host's
/// speed at that moment (README.md, "Steadiness"). It is a small event loop
/// (binary heap of 4096 timers firing into random 64-byte records of a
/// 4 MiB arena), memory-latency bound like the simulator, and shares no
/// code with it, so a change to the program does not change this work.
class ReferenceKernel {
 public:
  ReferenceKernel() : arena_(kRecords) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (Record& r : arena_) {
      x = xorshift(x);
      r = {x, x >> 3, x >> 5, x >> 7, x >> 11, x >> 13, x >> 17, x >> 19};
    }
  }

  /// Wall time of kSteps timer firings, ns. An untimed pass over the arena
  /// first brings it back into cache, whatever the program left there.
  std::int64_t run_ns() {
    for (const Record& r : arena_) sink_ += r.h;
    heap_.clear();
    std::uint64_t x = 2463534242ULL;
    for (int i = 0; i < kTimers; ++i) {
      x = xorshift(x);
      heap_.push_back({x % 100'000, static_cast<std::uint32_t>(x >> 40) %
                                        kRecords});
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
    const std::int64_t t0 = host_ns();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const auto [at, id] = heap_.back();
      heap_.pop_back();
      Record& r = arena_[id];
      r.a += at;
      r.b ^= r.a >> 3;
      r.c += r.b * 31;
      if ((r.c & 1) != 0) {
        r.d += r.a;
      } else {
        r.e ^= r.c;
      }
      const auto next = static_cast<std::uint32_t>(
          ((r.a * 0x9E3779B97F4A7C15ULL) >> 32) % kRecords);
      heap_.push_back({at + 1 + (r.b & 1023), next});
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    const std::int64_t ns = host_ns() - t0;
    sink_ += heap_.front().first;
    return ns;
  }

  /// Resident memory of the arena and the heap, KiB; all of it is touched.
  static long footprint_kb() {
    return static_cast<long>(kRecords * sizeof(Record) +
                             kTimers * sizeof(Timer)) / 1024;
  }

 private:
  static constexpr int kSteps = 12'000;
  static constexpr std::uint32_t kRecords = 1 << 16;
  static constexpr int kTimers = 4096;
  struct Record {
    std::uint64_t a, b, c, d, e, f, g, h;
  };
  using Timer = std::pair<std::uint64_t, std::uint32_t>;
  static bool later(const Timer& l, const Timer& r) {
    return l.first > r.first;
  }
  static std::uint64_t xorshift(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    return x ^ (x << 17);
  }

  std::vector<Record> arena_;
  std::vector<Timer> heap_;
  std::uint64_t sink_ = 0;  ///< keeps the loop's result observable
};

/// Exact counts of one traced episode, taken before its World is destroyed.
struct Counts {
  std::uint64_t frames = 0;
  std::uint64_t frames_error = 0;
  std::int64_t busy_ns = 0;
  std::int64_t sim_ns = 0;
  int segments = 0;
  Simulator::Stats kernel;
  ShardEngine::Stats engine;
  std::uint64_t rx_frames_seen = 0;
  std::vector<std::string> rteb;  ///< one RTEB stream per segment
};

/// Ends the process with exit code 3 when one run_until slice has not
/// returned after kLimitNs: the simulation has livelocked (see node_clock in
/// world.cpp). Slices normally take well under a second.
class Watchdog {
 public:
  static constexpr std::int64_t kLimitNs = 20'000'000'000;

  Watchdog() : thread_{[this] { watch(); }} {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock{mu_};
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm() { armed_at_.store(host_ns()); }
  void disarm() { armed_at_.store(0); }

 private:
  void watch() {
    std::unique_lock<std::mutex> lock{mu_};
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      const std::int64_t t = armed_at_.load();
      if (t != 0 && host_ns() - t > kLimitNs) {
        std::fprintf(stderr,
                     "rtec_perf: livelock: a run_until slice has not returned "
                     "after %lld s\n",
                     static_cast<long long>(kLimitNs / 1'000'000'000));
        std::_Exit(3);
      }
    }
  }

  std::atomic<std::int64_t> armed_at_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread thread_;  ///< declared last: starts after the members it reads
};

/// Runs the world through one episode in run_until slices.
Sample run_episode(World& world, Tracer* tracer, Watchdog& watchdog,
                   ReferenceKernel& ref) {
  Sample s;
  s.setup = world.setup();
  Scenario& scn = world.scenario();
  const TimePoint start = scn.now();
  const Duration len = world.episode_length();
  for (int k = 1; k <= kSlicesPerEpisode; ++k) {
    s.slice_ref_ns.push_back(ref.run_ns());
    const std::uint32_t span =
        tracer != nullptr ? tracer->begin(SpanKind::kRunSlice, 0) : 0;
    if (tracer != nullptr) tracer->set_open_slice(span);
    watchdog.arm();
    const std::int64_t w0 = host_ns();
    const std::int64_t p0 = cpu_ns();
    scn.run_until(start + len * k / kSlicesPerEpisode);
    s.slice_cpu_ns.push_back(cpu_ns() - p0);
    s.slice_ns.push_back(host_ns() - w0);
    watchdog.disarm();
    if (tracer != nullptr) tracer->end(span);
  }
  // Sums of the slices, so the reference kernel's runs are not counted.
  for (int k = 0; k < kSlicesPerEpisode; ++k) {
    s.run_ns += s.slice_ns[k];
    s.cpu_ns += s.slice_cpu_ns[k];
  }
  s.frames = world.frames();
  return s;
}

Counts take_counts(World& world) {
  Counts c;
  Scenario& scn = world.scenario();
  c.segments = scn.network_count();
  c.sim_ns = scn.now().ns();
  for (int net = 0; net < c.segments; ++net) {
    c.frames_error += scn.bus(net).frames_error();
    c.busy_ns += scn.bus(net).busy_time().ns();
    if (const trace::RtebRecorder* rec = scn.rteb(net))
      c.rteb.push_back(rec->bytes());
  }
  c.frames = world.frames();
  for (const Simulator* k : world.kernels()) {
    const Simulator::Stats& s = k->stats();
    c.kernel.scheduled += s.scheduled;
    c.kernel.injected += s.injected;
    c.kernel.cancelled += s.cancelled;
    c.kernel.fired += s.fired;
    c.kernel.compactions += s.compactions;
  }
  c.engine = scn.shard_engine().stats();
  c.rx_frames_seen = world.rx_frames_seen();
  return c;
}

/// Every frame attempt in the RTEB captures (one stream per segment).
std::vector<trace::RtebFrame> captured_frames(
    const std::vector<std::string>& streams) {
  std::vector<trace::RtebFrame> frames;
  for (const std::string& bytes : streams) {
    auto reader = trace::RtebReader::open(bytes);
    if (!reader) continue;
    auto records = reader->read_all();
    if (!records) continue;
    for (const trace::RtebRecord& r : *records)
      if (r.kind == trace::RtebKind::kFrame) frames.push_back(r.frame);
  }
  return frames;
}

template <class F>
double median_ns_per_item(std::size_t items, F&& pass) {
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = host_ns();
    pass();
    per.push_back(static_cast<double>(host_ns() - t0) /
                  static_cast<double>(std::max<std::size_t>(items, 1)));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

/// canbus.encode_ns: frame_wire_bits over every captured frame. The bit
/// total of one pass is returned through `wire_bits` (an exact count).
double replay_encode_ns(const std::vector<trace::RtebFrame>& frames,
                        std::uint64_t& wire_bits) {
  return median_ns_per_item(frames.size(), [&] {
    wire_bits = 0;
    for (const trace::RtebFrame& f : frames)
      wire_bits += static_cast<std::uint64_t>(frame_wire_bits(f.frame));
  });
}

/// core.rx_dispatch_ns: CanController::on_rx of a node that subscribes to
/// nothing, so every frame takes the full middleware dispatch path.
double replay_rx_dispatch_ns(const std::vector<trace::RtebFrame>& frames) {
  Scenario replay;
  CanController& ctl = replay.add_node(NodeId{127}).controller();
  return median_ns_per_item(frames.size(), [&] {
    for (const trace::RtebFrame& f : frames) ctl.on_rx(f.frame, f.at);
  });
}

/// FNV-1a over the segments' streams in segment order.
std::uint64_t fnv1a64(const std::vector<std::string>& streams) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& bytes : streams)
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  return h;
}

double quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return static_cast<double>(v[quantile_rank(v.size(), q)]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[quantile_rank(v.size(), 0.5)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_samples(std::FILE* out, const char* key,
                   const std::vector<Sample>& samples) {
  std::fprintf(out, ",\"%s\":[", key);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "%s{\"setup_ns\":%lld,\"setup_ref_ns\":%lld,"
                 "\"topology_ns\":%lld,\"nodes_ns\":%lld,\"channels_ns\":%lld,"
                 "\"clock_sync_ns\":%lld,\"run_ns\":%lld,"
                 "\"cpu_ns\":%lld,\"frames\":%llu",
                 i > 0 ? "," : "", static_cast<long long>(s.setup.total),
                 static_cast<long long>(s.setup_ref_ns),
                 static_cast<long long>(s.setup.topology),
                 static_cast<long long>(s.setup.nodes),
                 static_cast<long long>(s.setup.channels),
                 static_cast<long long>(s.setup.clock_sync),
                 static_cast<long long>(s.run_ns),
                 static_cast<long long>(s.cpu_ns),
                 static_cast<unsigned long long>(s.frames));
    for (const auto& [name, v] : {std::pair{"slice_ns", &s.slice_ns},
                                  std::pair{"slice_cpu_ns", &s.slice_cpu_ns},
                                  std::pair{"slice_ref_ns", &s.slice_ref_ns}}) {
      std::fprintf(out, ",\"%s\":[", name);
      for (std::size_t k = 0; k < v->size(); ++k)
        std::fprintf(out, "%s%lld", k > 0 ? "," : "",
                     static_cast<long long>((*v)[k]));
      std::fputc(']', out);
    }
    std::fputc('}', out);
  }
  std::fputc(']', out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rtec_perf --workload bus64|bus64-faults|grid256-seq|"
                 "grid256-par|bus64-drift --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }

  // Distinct simulated outputs, with the number of episodes that gave each.
  std::map<std::string, int> outputs;
  std::vector<Sample> plain;   // untraced episodes
  std::vector<Sample> traced;  // traced episodes
  std::unique_ptr<Tracer> first_tracer;
  Counts counts;
  Watchdog watchdog;
  ReferenceKernel ref;

  const std::int64_t deadline =
      host_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto episode = [&](bool with_trace) {
    auto tracer =
        with_trace ? std::make_unique<Tracer>(perf::segments(args.workload))
                   : nullptr;
    const std::int64_t setup_ref_ns = ref.run_ns();
    World world{args.workload, args.seed, tracer.get()};
    if (with_trace)
      for (int net = 0; net < world.scenario().network_count(); ++net)
        (void)world.scenario().record_rteb(net);
    Sample s = run_episode(world, tracer.get(), watchdog, ref);
    s.setup_ref_ns = setup_ref_ns;
    ++outputs[world.outputs_json()];
    (with_trace ? traced : plain).push_back(s);
    if (with_trace && !first_tracer) {
      counts = take_counts(world);
      first_tracer = std::move(tracer);
    }
  };
  do {
    // Traced runs interleave plain and traced episodes so both see the
    // same host conditions; their ratio is the tracing overhead.
    if (!args.trace || args.seconds > 0) episode(false);
    if (args.trace) episode(true);
  } while (host_ns() < deadline);

  std::FILE* out = stdout;
  // peak_rss_kb leaves out the reference kernel's buffers.
  std::fprintf(out,
               "{\"workload\":\"%s\",\"seed\":%llu,\"host_cpus\":%u,"
               "\"compiler\":\"%s\",\"build_type\":\"%s\","
               "\"peak_rss_kb\":%ld,\"episode_sim_s\":%.3f",
               args.workload_name.c_str(),
               static_cast<unsigned long long>(args.seed),
               std::thread::hardware_concurrency(), RTEC_PERF_COMPILER,
               RTEC_PERF_BUILD_TYPE,
               peak_rss_kb() - ReferenceKernel::footprint_kb(),
               perf::episode_length(args.workload).sec());
  std::fprintf(out, ",\"outputs\":[");
  bool first = true;
  for (const auto& [json, n] : outputs) {
    std::fprintf(out, "%s{\"episodes\":%d,\"outputs\":%s}", first ? "" : ",", n,
                 json.c_str());
    first = false;
  }
  std::fputc(']', out);
  print_samples(out, "plain", plain);

  if (args.trace) {
    print_samples(out, "traced", traced);
    const std::vector<trace::RtebFrame> frames = captured_frames(counts.rteb);
    std::size_t rteb_bytes = 0;
    for (const std::string& b : counts.rteb) rteb_bytes += b.size();
    std::uint64_t wire_bits = 0;
    const double encode_ns = replay_encode_ns(frames, wire_bits);
    const double n = static_cast<double>(counts.frames);
    const Tracer& tr = *first_tracer;
    std::vector<double> plain_run, plain_par;
    for (const Sample& s : plain) {
      plain_run.push_back(static_cast<double>(s.run_ns));
      plain_par.push_back(ratio(static_cast<double>(s.cpu_ns),
                                static_cast<double>(s.run_ns)));
    }
    std::vector<double> traced_run;
    for (const Sample& s : traced)
      traced_run.push_back(static_cast<double>(s.run_ns));
    const auto setup_ms = [&](std::int64_t perf::SetupTimes::*field) {
      std::vector<double> v;
      for (const Sample& s : plain.empty() ? traced : plain)
        v.push_back(static_cast<double>(s.setup.*field) / 1e6);
      return median(v);
    };
    const ShardEngine::Stats& e = counts.engine;
    const std::vector<std::pair<const char*, double>> layers = {
        {"sim.fired_per_frame", ratio(double(counts.kernel.fired), n)},
        {"sim.scheduled_per_frame", ratio(double(counts.kernel.scheduled), n)},
        {"sim.cancelled_per_frame", ratio(double(counts.kernel.cancelled), n)},
        {"sim.injected_per_frame", ratio(double(counts.kernel.injected), n)},
        {"sim.compactions", double(counts.kernel.compactions)},
        {"sim.schedule_ns_p50",
         quantile(tr.durations(SpanKind::kScheduleAfter), 0.5)},
        {"sim.schedule_ns_p99",
         quantile(tr.durations(SpanKind::kScheduleAfter), 0.99)},
        {"canbus.encode_ns", encode_ns},
        {"canbus.error_ratio", ratio(double(counts.frames_error), n)},
        {"canbus.utilization",
         ratio(double(counts.busy_ns),
               double(counts.sim_ns) * counts.segments)},
        {"core.rx_dispatch_per_frame", ratio(double(counts.rx_frames_seen), n)},
        {"core.rx_dispatch_ns", replay_rx_dispatch_ns(frames)},
        {"core.publish_ns_p50", quantile(tr.durations(SpanKind::kPublish), 0.5)},
        {"core.publish_ns_p99",
         quantile(tr.durations(SpanKind::kPublish), 0.99)},
        {"core.get_event_ns_p50",
         quantile(tr.durations(SpanKind::kGetEvent), 0.5)},
        {"engine.epochs", double(e.epochs)},
        {"engine.shard_skip_ratio",
         ratio(double(e.shard_skips), double(e.shard_runs + e.shard_skips))},
        {"engine.handoffs_per_batch",
         ratio(double(e.handoffs), double(e.handoff_batches))},
        {"engine.barrier_park_ratio",
         ratio(double(e.barrier_parks),
               double(e.barrier_parks + e.barrier_spins))},
        {"engine.epoch_us", ratio(median(plain_run) / 1e3, double(e.epochs))},
        {"engine.parallelism", median(plain_par)},
        {"setup.topology_ms", setup_ms(&perf::SetupTimes::topology)},
        {"setup.nodes_ms", setup_ms(&perf::SetupTimes::nodes)},
        {"setup.channels_ms", setup_ms(&perf::SetupTimes::channels)},
        {"setup.clock_sync_ms", setup_ms(&perf::SetupTimes::clock_sync)},
        {"trace.overhead_ratio", ratio(median(traced_run), median(plain_run))},
        {"trace.rteb_bytes_per_frame", ratio(double(rteb_bytes), n)},
    };
    std::fprintf(out,
                 ",\"replayed_frames\":%zu,\"replayed_wire_bits\":%llu,"
                 "\"rteb_bytes\":%zu,\"rteb_fnv64\":\"%016llx\",\"layers\":{",
                 frames.size(), static_cast<unsigned long long>(wire_bits),
                 rteb_bytes,
                 static_cast<unsigned long long>(fnv1a64(counts.rteb)));
    for (std::size_t i = 0; i < layers.size(); ++i)
      std::fprintf(out, "%s\"%s\":%.9g", i > 0 ? "," : "", layers[i].first,
                   layers[i].second);
    std::fputc('}', out);
    if (!args.spans_path.empty() && !tr.write_csv(args.spans_path)) {
      std::fprintf(stderr, "rtec_perf: cannot write %s\n",
                   args.spans_path.c_str());
      return 1;
    }
  }
  std::fputs("}\n", out);
  return 0;
}
