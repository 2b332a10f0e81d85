#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "soc/core/dse_wire.hpp"
#include "soc/core/mapper.hpp"
#include "soc/dsoc/marshal.hpp"
#include "soc/noc/floorplan.hpp"
#include "soc/platform/cost.hpp"
#include "soc/sim/parallel.hpp"
#include "soc/tlm/loopback.hpp"
#include "soc/tlm/socket.hpp"

namespace pb {

using namespace soc;

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double wall_s() { return clock_s(CLOCK_MONOTONIC); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double quiet_pass_time(const std::vector<std::vector<double>>& parts) {
  std::vector<double> share;
  double total = 0.0;
  for (const std::vector<double>& part : parts) {
    share.push_back(median(part));
    total += share.back();
  }
  std::vector<double> passes;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    for (const double t : parts[k]) passes.push_back(t * total / share[k]);
  }
  return quiet_time(passes);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return sim::derive_seed(seed, stream);
}

double Trace::seconds(const std::string& layer) const {
  const auto it = rows_.find(layer);
  return it == rows_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t Trace::calls(const std::string& layer) const {
  const auto it = rows_.find(layer);
  return it == rows_.end() ? 0 : it->second.calls;
}

// ---------------------------------------------------------------- checks ---

std::vector<std::vector<std::uint32_t>> stream_words(
    const std::vector<core::DsePoint>& points) {
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(points.size());
  for (const core::DsePoint& p : points) out.push_back(core::marshal_point(p));
  return out;
}

std::string check_fronts(const std::vector<core::DsePoint>& points,
                         std::size_t ncand,
                         const core::ObjectiveSpace& objectives) {
  if (ncand == 0 || points.size() % ncand != 0) {
    return "front check: point count is not a whole number of slices";
  }
  // Dominance from the axis definitions, written out here rather than
  // through ObjectiveSpace::dominates: maximize axes are negated so every
  // axis minimizes.
  const std::size_t k = objectives.size();
  std::vector<double> vals(points.size() * k);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t a = 0; a < k; ++a) {
      const core::ObjectiveAxis& axis = objectives.axis(a);
      const double v = axis.extract(points[i]);
      vals[i * k + a] =
          axis.direction == core::ObjectiveDirection::kMaximize ? -v : v;
    }
  }
  const auto dominates = [&](std::size_t j, std::size_t i) {
    bool strictly = false;
    for (std::size_t a = 0; a < k; ++a) {
      if (vals[j * k + a] > vals[i * k + a]) return false;
      if (vals[j * k + a] < vals[i * k + a]) strictly = true;
    }
    return strictly;
  };
  for (std::size_t s = 0; s < points.size() / ncand; ++s) {
    const std::size_t b = s * ncand;
    const std::size_t e = b + ncand;
    std::size_t front_size = 0;
    for (std::size_t i = b; i < e; ++i) {
      const core::DsePoint& p = points[i];
      if (!p.mapping_cost.feasible) {
        if (p.pareto_optimal) {
          return "front check: infeasible point " + std::to_string(i) +
                 " is on the front";
        }
        continue;
      }
      bool dominated = false;
      bool by_front = false;
      for (std::size_t j = b; j < e; ++j) {
        if (j == i || !points[j].mapping_cost.feasible) continue;
        if (dominates(j, i)) {
          dominated = true;
          by_front = by_front || points[j].pareto_optimal;
        }
      }
      if (p.pareto_optimal && dominated) {
        return "front check: front point " + std::to_string(i) +
               " is dominated";
      }
      if (!p.pareto_optimal && !by_front) {
        return "front check: point " + std::to_string(i) +
               " is off the front but no front point dominates it";
      }
      front_size += p.pareto_optimal ? 1 : 0;
    }
    if (front_size == 0) {
      return "front check: scenario " + std::to_string(s) + " has no front";
    }
  }
  return "";
}

core::TaskGraph work_graph(const core::TaskGraph& graph, int num_pes) {
  const int replicas = std::max(1, num_pes / graph.node_count());
  return replicas > 1 ? graph.replicated(replicas) : core::TaskGraph(graph);
}

std::string check_rescore(const std::vector<core::DsePoint>& points,
                          const core::ScenarioSet& scenarios,
                          const core::ObjectiveWeights& weights,
                          const core::DseConfig& config) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::DsePoint& p = points[i];
    const core::TaskGraph work = work_graph(
        scenarios.at(static_cast<std::size_t>(p.scenario)), p.candidate.num_pes);
    const core::PlatformDesc platform =
        core::make_candidate_platform(p.candidate, config);
    const core::MappingCost cost = core::evaluate_mapping(
        work, platform, p.mapping, weights, config.constraints);
    dsoc::WireWriter got;
    dsoc::WireWriter want;
    core::wire_put(got, cost);
    core::wire_put(want, p.mapping_cost);
    if (got.words() != want.words()) {
      return "re-score check: point " + std::to_string(i) +
             " does not re-evaluate to its stored MappingCost";
    }
  }
  return "";
}

std::vector<std::uint64_t> report_words(const core::ValidationReport& r) {
  std::vector<std::uint64_t> w;
  const auto f = [&w](double v) { w.push_back(std::bit_cast<std::uint64_t>(v)); };
  dsoc::WireWriter analytic;
  core::wire_put(analytic, r.analytic);
  for (const std::uint32_t x : analytic.words()) w.push_back(x);
  f(r.analytic_items_per_kcycle);
  f(r.offered_items_per_kcycle);
  f(r.simulated_items_per_kcycle);
  f(r.sim_to_analytic_ratio);
  w.push_back(r.rounds_completed);
  w.push_back(r.network_saturated);
  w.push_back(r.network_active);
  f(r.avg_packet_latency);
  f(r.peak_link_utilization);
  for (const core::EdgeFlowReport& e : r.edges) {
    w.insert(w.end(), {static_cast<std::uint64_t>(e.edge),
                       static_cast<std::uint64_t>(e.src_pe),
                       static_cast<std::uint64_t>(e.dst_pe),
                       static_cast<std::uint64_t>(e.hops), e.flits, e.local,
                       e.packets_delivered});
    f(e.avg_latency_cycles);
    f(e.max_latency_cycles);
  }
  for (const core::LinkHotspot& h : r.hotspots) {
    w.insert(w.end(), {static_cast<std::uint64_t>(h.link), h.ni,
                       static_cast<std::uint64_t>(h.from_router),
                       static_cast<std::uint64_t>(h.to_router)});
    f(h.utilization);
  }
  return w;
}

std::string check_report(const core::ValidationReport& r) {
  if (!(r.peak_link_utilization >= 0.0)) {
    return "replay check: peak link utilization " +
           std::to_string(r.peak_link_utilization) + " is negative";
  }
  if (r.network_saturated &&
      !(r.simulated_items_per_kcycle < r.offered_items_per_kcycle)) {
    return "replay check: saturated point simulated " +
           std::to_string(r.simulated_items_per_kcycle) +
           " items/kcycle, not below the offered " +
           std::to_string(r.offered_items_per_kcycle);
  }
  return "";
}

// ----------------------------------------------------- shared measurements ---

double measure_parallel_capacity() {
  // Fixed integer work per thread; capacity = how many threads' worth of
  // work the host completes per unit time compared with one thread alone.
  constexpr std::uint64_t kSpins = 40'000'000;
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < kSpins; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  double t0 = wall_s();
  sink += spin();
  const double one = wall_s() - t0;
  constexpr int kThreads = 4;
  t0 = wall_s();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] { sink += spin(); });
    }
    for (std::thread& t : threads) t.join();
  }
  const double four = wall_s() - t0;
  return sink.load() == 0 ? 0.0 : kThreads * one / four;
}

namespace {

/// Echoes every message back to its initiator.
class Echo final : public tlm::Endpoint {
 public:
  Echo(tlm::MessageBus& bus, noc::TerminalId self) : bus_(bus), self_(self) {}
  void handle(const tlm::Transaction& req, tlm::CompletionFn) override {
    bus_.message(self_, req.initiator, req.payload);
  }

 private:
  tlm::MessageBus& bus_;
  noc::TerminalId self_;
};

/// Counts arrivals so a sender can wait for each reply.
class Sink final : public tlm::Endpoint {
 public:
  void handle(const tlm::Transaction&, tlm::CompletionFn) override {
    const std::lock_guard<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
  }
  /// Waits up to 5 s for arrival number `n`; false on timeout.
  bool wait_for(std::uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return arrived_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t arrived_ = 0;
};

/// Median round trip of `n` sequential ping-pongs from `from` to `to`.
double ping_pong_us(tlm::MessageBus& bus, noc::TerminalId from,
                    noc::TerminalId to, Sink& sink, int n) {
  std::vector<double> rtt;
  rtt.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double t0 = wall_s();
    bus.message(from, to, {static_cast<std::uint32_t>(i)});
    if (!sink.wait_for(static_cast<std::uint64_t>(i) + 1)) {
      throw std::runtime_error("ping-pong reply timed out");
    }
    rtt.push_back((wall_s() - t0) * 1e6);
  }
  return median(rtt);
}

}  // namespace

double loopback_round_trip_us() {
  tlm::LoopbackTransport bus;
  Sink sink;
  Echo echo(bus, 2);
  bus.attach(1, sink);
  bus.attach(2, echo);
  const double us = ping_pong_us(bus, 1, 2, sink, 2000);
  bus.shutdown();
  return us;
}

double socket_round_trip_us() {
  auto server = tlm::SocketTransport::listen(0);
  Echo echo(*server, 2);
  server->attach(2, echo);
  auto client = tlm::SocketTransport::connect("127.0.0.1", server->port());
  Sink sink;
  client->attach(1, sink);
  const double us = ping_pong_us(*client, 1, 2, sink, 1000);
  client->shutdown();
  server->shutdown();
  return us;
}

void codec_rows(const std::vector<core::DsePoint>& points,
                std::map<std::string, double>& values) {
  const double n = static_cast<double>(points.size());
  std::vector<std::vector<std::uint32_t>> words;
  words.reserve(points.size());
  double t0 = thread_cpu_s();
  for (const core::DsePoint& p : points) words.push_back(core::marshal_point(p));
  values["core.dse_wire.marshal_point.us"] = (thread_cpu_s() - t0) * 1e6 / n;
  // Decoded and framed sizes feed a volatile sink so neither loop can be
  // optimized away.
  static volatile std::size_t sink = 0;
  double total_words = 0.0;
  t0 = thread_cpu_s();
  for (const auto& w : words) {
    total_words += static_cast<double>(w.size());
    sink = sink + core::unmarshal_point(w).mapping.size();
  }
  values["core.dse_wire.unmarshal_point.us"] = (thread_cpu_s() - t0) * 1e6 / n;
  values["core.dse_wire.words_per_point"] = total_words / n;
  t0 = thread_cpu_s();
  for (const auto& w : words) {
    sink = sink +
           dsoc::marshal_call(dsoc::CallHeader{1, 1, 1, dsoc::kNoReply}, w).size();
  }
  values["dsoc.marshal_call.us"] = (thread_cpu_s() - t0) * 1e6 / n;
}

void per_point_rows(const Trace& trace, double points,
                    std::map<std::string, double>& values) {
  for (const auto& [name, row] : trace.rows()) {
    values[name + ".us"] = row.seconds * 1e6 / points;
    values[name + ".calls"] = static_cast<double>(row.calls) / points;
  }
}

core::PlatformDesc trace_platform(const core::DseCandidate& cand,
                                  const core::DseConfig& config,
                                  Trace& trace) {
  platform::FppaConfig fc;
  fc.num_pes = cand.num_pes;
  fc.threads_per_pe = cand.threads_per_pe;
  fc.topology = cand.topology;
  const auto cost_topo = trace.time("noc.make_topology", [&] {
    return noc::make_topology(cand.topology, fc.terminal_count());
  });
  const platform::PlatformCost silicon =
      trace.time("platform.estimate_cost", [&] {
        return platform::estimate_cost(
            fc, cand.node,
            platform::PhysicalCostConfig{config.die_mm2, config.link_timing},
            *cost_topo);
      });
  std::optional<noc::PhysicalSpec> phys;
  if (config.physical_links) {
    phys = noc::PhysicalSpec{noc::LinkTimingModel(cand.node, config.link_timing),
                             silicon.die_mm2};
  }
  const auto topo = trace.time("noc.make_topology", [&] {
    return noc::make_topology(cand.topology, cand.num_pes,
                              phys ? &*phys : nullptr);
  });
  // The candidate PE pool, as DseConfig describes it: uniform PEs, striped
  // over pe_kind_groups task kinds when set.
  std::vector<core::PeDesc> pes(
      static_cast<std::size_t>(cand.num_pes),
      core::PeDesc{cand.pe_fabric, cand.threads_per_pe, {}, config.pe_capacity});
  if (config.pe_kind_groups > 0) {
    for (int i = 0; i < cand.num_pes; ++i) {
      pes[static_cast<std::size_t>(i)].compatible_kinds = {
          i % config.pe_kind_groups};
    }
  }
  return trace.time("core.platform_desc", [&] {
    return core::PlatformDesc(std::move(pes), cand.topology, cand.node, phys,
                              *topo);
  });
}

std::pair<core::Mapping, core::MappingCost> trace_cold_point(
    const core::ShardEvaluator& shard, const core::Mapper& mapper,
    std::size_t flat, Trace& trace) {
  const std::size_t ncand = shard.candidates().size();
  const core::DseCandidate& cand = shard.candidates()[flat % ncand];
  const core::TaskGraph& graph = shard.scenarios()[flat / ncand];
  const core::DseConfig& config = shard.config();
  const core::TaskGraph work = trace.time(
      "core.task_graph.replicate", [&] { return work_graph(graph, cand.num_pes); });
  const core::PlatformDesc platform = trace_platform(cand, config, trace);
  sim::Rng rng(sim::derive_seed(shard.anneal().seed, flat));
  core::Mapping m =
      trace.time("core.mapper." + std::string(mapper.name()), [&] {
        return mapper.map(work, platform, shard.problem().weights, rng,
                          config.constraints);
      });
  core::MappingCost cost = trace.time("core.evaluate_mapping", [&] {
    return core::evaluate_mapping(work, platform, m, shard.problem().weights,
                                  config.constraints);
  });
  return {std::move(m), std::move(cost)};
}

void trace_mark_fronts(const std::vector<core::DsePoint>& points,
                       std::size_t ncand, const core::ObjectiveSpace& objectives,
                       const core::DseConfig& config, Trace& trace) {
  for (std::size_t b = 0; b + ncand <= points.size(); b += ncand) {
    std::vector<core::DsePoint> slice(
        points.begin() + static_cast<std::ptrdiff_t>(b),
        points.begin() + static_cast<std::ptrdiff_t>(b + ncand));
    trace.time("core.mark_front",
               [&] { return objectives.mark_front(slice, config); });
  }
}

}  // namespace pb
