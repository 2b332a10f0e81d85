// contention_replay: every grid point replayed on the event-driven NoC.
//
// Inputs (from --seed): 48 communication-heavy ScenarioGenerator graphs
// (shapes cycling, depth 4, width 2, comm_ratio 1, 10-30 ops per task) x a
// 7-candidate space, one per topology family including the bus (16
// general-purpose PEs with 2 threads, 90 nm) = 336 points, greedy mapper,
// EvalCache off. Many small graphs keep the replay cost per point close
// from seed to seed.
//
// A round maps the grid with run_distributed_sweep over 2 loopback workers,
// then replays every point (not only the front) through
// validate_mapping_on_network on a fresh make_candidate_platform, one at a
// time on the calling thread, in kStrata interleaved strata timed one by
// one: the replay figures are quiet_pass_time over those short samples, and
// each point's fastest replay. Round 0 is checked independently (dominance,
// re-scoring, report invariants); every later round must reproduce round
// 0's stream and reports exactly, which is the second replay of every
// mapping, so a run makes at least two rounds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "soc/core/distributed_sweep.hpp"
#include "soc/core/scenario.hpp"
#include "soc/tech/process_node.hpp"

namespace pb {

using namespace soc;

namespace {

constexpr noc::TopologyKind kAllTopologies[] = {
    noc::TopologyKind::kBus,     noc::TopologyKind::kRing,
    noc::TopologyKind::kBinaryTree, noc::TopologyKind::kFatTree,
    noc::TopologyKind::kMesh2D,  noc::TopologyKind::kTorus2D,
    noc::TopologyKind::kCrossbar};

/// Point i of the grid is replayed in stratum i % kStrata: with 7 topologies
/// per scenario, every stratum of about 10 points mixes them alike.
constexpr std::size_t kStrata = 32;

struct Inputs {
  core::ScenarioSet scenarios;
  core::DseProblem problem{core::TaskGraph("")};
  core::DseSpace space;
  core::AnnealConfig anneal;
  core::DseConfig config;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const core::ScenarioGenerator gen(derive(seed, 3));
  for (int i = 0; i < 48; ++i) {
    core::ScenarioSpec spec;
    spec.shape = static_cast<core::ScenarioShape>(i % 3);
    spec.depth = 4;
    spec.width = 2;
    spec.comm_ratio = 1.0;
    spec.work_min = 10.0;
    spec.work_max = 30.0;
    spec.name = std::string("comm-") + core::to_string(spec.shape);
    in.scenarios.push_back(gen.generate(spec, i));
  }
  in.problem = core::DseProblem{in.scenarios.front(),
                                core::ObjectiveSpace::default_space(),
                                core::ObjectiveWeights{}, tech::node_90nm()};
  in.space.pe_counts = {16};
  in.space.thread_counts = {2};
  in.space.topologies.assign(std::begin(kAllTopologies),
                             std::end(kAllTopologies));
  in.space.fabrics = {tech::Fabric::kGeneralPurposeCpu};
  in.anneal.seed = derive(seed, 4);
  in.config.num_threads = 1;
  in.config.mapper = "greedy";
  in.config.use_eval_cache = false;
  return in;
}

/// The fixed replay that shows the link-utilization overrun: a
/// series-parallel communication-heavy graph greedily mapped onto a 16-PE
/// bus, whose saturated bus is charged for the last packet's serialization
/// past the end of the measurement window, so the reported peak utilization
/// exceeds 1 (1.000067). It does not depend on --seed, so every round
/// attempts it and it fails in every round, while the same overrun on the
/// seeded points comes and goes with the seed.
struct OverrunProbe {
  core::TaskGraph work{""};
  std::optional<core::PlatformDesc> platform;
  core::Mapping mapping;
};

OverrunProbe make_overrun_probe() {
  core::ScenarioSpec spec;
  spec.shape = core::ScenarioShape::kSeriesParallel;
  spec.depth = 4;
  spec.width = 3;
  spec.comm_ratio = 1.0;
  spec.work_min = 5.0;
  spec.work_max = 40.0;
  const core::TaskGraph graph =
      core::ScenarioGenerator(derive(1, 3)).generate(spec, 1);
  core::DseCandidate cand;
  cand.num_pes = 16;
  cand.threads_per_pe = 2;
  cand.topology = noc::TopologyKind::kBus;
  cand.pe_fabric = tech::Fabric::kGeneralPurposeCpu;
  cand.node = tech::node_90nm();
  core::DseConfig config;
  config.mapper = "greedy";
  OverrunProbe probe;
  probe.work = work_graph(graph, cand.num_pes);
  probe.platform.emplace(core::make_candidate_platform(cand, config));
  sim::Rng rng(0);
  probe.mapping = core::make_mapper(config.mapper)->map(
      probe.work, *probe.platform, core::ObjectiveWeights{}, rng,
      config.constraints);
  return probe;
}

std::uint64_t packets(const core::ValidationReport& rep) {
  std::uint64_t n = 0;
  for (const core::EdgeFlowReport& e : rep.edges) n += e.packets_delivered;
  return n;
}

}  // namespace

Result run_contention_replay(const Options& opt, double setup_start) {
  const Inputs in = make_inputs(opt.seed);
  const OverrunProbe probe = make_overrun_probe();
  Result r;
  r.values["setup_s"] = wall_s() - setup_start;

  const double t_loop = wall_s();
  const std::size_t ncand = in.space.pe_counts.size() *
                            in.space.thread_counts.size() *
                            in.space.topologies.size() *
                            in.space.fabrics.size();
  const double npts = static_cast<double>(ncand * in.scenarios.size());

  std::vector<std::vector<std::uint32_t>> ref;       // round 0's stream
  std::vector<std::vector<std::uint64_t>> ref_reps;  // round 0's reports
  std::vector<core::ValidationReport> reports;  // round 0's
  std::vector<noc::TopologyKind> topologies;    // per point
  std::vector<double> sweep_cpu, pass_cpu, wire_bytes, traced_cpu, coverage;
  // Replay wall time per point, and wall and CPU time per stratum, one
  // entry per round.
  std::vector<std::vector<double>> point_s(static_cast<std::size_t>(npts)),
      stratum_s(kStrata), stratum_cpu(kStrata);
  double replay_seconds = 0.0;
  std::uint64_t replay_packets = 0;
  Trace trace;
  std::unique_ptr<core::Mapper> mapper;
  std::unique_ptr<core::ShardEvaluator> shard;
  if (opt.trace) {
    mapper = core::make_mapper(in.config.mapper, in.anneal);
    shard = std::make_unique<core::ShardEvaluator>(
        in.problem, in.scenarios, in.space, in.anneal, in.config);
  }

  int round = 0;
  do {
    const double c0 = process_cpu_s();
    const core::DistributedSweepResult dr = core::run_distributed_sweep(
        in.problem, in.scenarios, in.space, in.anneal, in.config, 2);
    sweep_cpu.push_back((process_cpu_s() - c0) * 1e6 / npts);
    wire_bytes.push_back(4.0 * static_cast<double>(dr.stats.words_on_wire) /
                         npts);

    if (dr.points.size() != point_s.size()) {
      r.fail("stage-1 sweep returned " + std::to_string(dr.points.size()) +
             " points, not " + std::to_string(point_s.size()));
      break;
    }
    const double w1 = wall_s();
    std::vector<core::ValidationReport> reps(dr.points.size());
    for (std::size_t k = 0; k < kStrata; ++k) {
      const double s0 = wall_s();
      const double sc0 = thread_cpu_s();
      for (std::size_t i = k; i < dr.points.size(); i += kStrata) {
        const core::DsePoint& p = dr.points[i];
        const double t0 = wall_s();
        const core::PlatformDesc platform =
            core::make_candidate_platform(p.candidate, in.config);
        const core::TaskGraph work = work_graph(
            in.scenarios[static_cast<std::size_t>(p.scenario)],
            p.candidate.num_pes);
        reps[i] = core::validate_mapping_on_network(work, platform, p.mapping);
        point_s[i].push_back(wall_s() - t0);
      }
      stratum_cpu[k].push_back(thread_cpu_s() - sc0);
      stratum_s[k].push_back(wall_s() - s0);
    }
    const double w2 = wall_s();
    pass_cpu.push_back((process_cpu_s() - c0) * 1e6 / npts);
    replay_seconds += w2 - w1;
    for (const core::ValidationReport& rep : reps) replay_packets += packets(rep);
    r.attempted += static_cast<std::uint64_t>(npts);

    // Output checks (untimed). The utilization bound is checked on the
    // fixed probe, which fails it in every round; on the seeded points the
    // same overrun shows only for some seeds (see check_report).
    ++r.attempted;
    const core::ValidationReport overrun = core::validate_mapping_on_network(
        probe.work, *probe.platform, probe.mapping);
    if (overrun.peak_link_utilization > 1.0) ++r.failed;
    if (round == 0) {
      if (const std::string e =
              check_fronts(dr.points, ncand, in.problem.objectives);
          !e.empty()) {
        r.fail("stage-1 " + e);
      }
      if (const std::string e = check_rescore(dr.points, in.scenarios,
                                              in.problem.weights, in.config);
          !e.empty()) {
        r.fail("stage-1 " + e);
      }
      ref = stream_words(dr.points);
      for (std::size_t i = 0; i < reps.size(); ++i) {
        if (const std::string e = check_report(reps[i]); !e.empty()) {
          r.fail("point " + std::to_string(i) + ": " + e);
        }
        ref_reps.push_back(report_words(reps[i]));
      }
      reports = reps;
      for (const core::DsePoint& p : dr.points) {
        topologies.push_back(p.candidate.topology);
      }
    } else {
      if (stream_words(dr.points) != ref) {
        r.fail("round " + std::to_string(round) +
               ": stage-1 stream differs from round 0");
      }
      for (std::size_t i = 0; i < reps.size(); ++i) {
        if (report_words(reps[i]) != ref_reps[i]) {
          r.fail("round " + std::to_string(round) + ": a second replay of point " +
                 std::to_string(i) + " differs from round 0's");
          break;
        }
      }
    }

    // Traced pass: stage 1 and the replay through the public layer calls.
    if (opt.trace) {
      Trace pass;
      const double t0 = process_cpu_s();
      for (std::size_t f = 0; f < dr.points.size(); ++f) {
        const auto [m, cost] = trace_cold_point(*shard, *mapper, f, pass);
        const core::DsePoint& p = dr.points[f];
        if (m != p.mapping || cost.objective != p.mapping_cost.objective) {
          r.fail("traced pass: point " + std::to_string(f) +
                 " differs from the sharded sweep's");
        }
        const core::PlatformDesc platform =
            trace_platform(p.candidate, in.config, pass);
        const core::TaskGraph work = pass.time("core.task_graph.replicate", [&] {
          return work_graph(in.scenarios[static_cast<std::size_t>(p.scenario)],
                            p.candidate.num_pes);
        });
        const core::ValidationReport rep = pass.time("core.validator", [&] {
          return core::validate_mapping_on_network(work, platform, m);
        });
        if (report_words(rep) != ref_reps[f]) {
          r.fail("traced pass: replay of point " + std::to_string(f) +
                 " differs from round 0");
        }
      }
      trace_mark_fronts(dr.points, ncand, in.problem.objectives, in.config,
                        pass);
      traced_cpu.push_back((process_cpu_s() - t0) * 1e6 / npts);
      double layered = 0.0;
      for (const auto& [name, row] : pass.rows()) {
        layered += row.seconds;
        trace.add(name, row.calls, row.seconds);
      }
      coverage.push_back(layered * 1e6 / npts / pass_cpu.back());
    }
    ++round;
  } while (round < 2 || wall_s() - t_loop < opt.seconds);

  if (point_s.front().empty()) return r;  // no replay ran (a failed check)
  if (!opt.trace) {
    r.values["points_per_s"] = npts / quiet_pass_time(stratum_s);
    // Stage 1 is sharded over 2 workers: its CPU per point is the median
    // over rounds. The replay's is timed in strata like its wall time.
    r.values["cpu_us_per_point"] =
        median(sweep_cpu) + quiet_pass_time(stratum_cpu) * 1e6 / npts;
    std::vector<double> fastest;
    for (const std::vector<double>& t : point_s) {
      fastest.push_back(*std::min_element(t.begin(), t.end()));
    }
    r.values["first_result_ms"] = median(fastest) * 1e3;
    r.values["wire_bytes_per_point"] = median(wire_bytes);
    return r;
  }

  const double rounds = static_cast<double>(round);
  per_point_rows(trace, npts * rounds, r.values);
  r.values["core.mark_front.ms"] = trace.seconds("core.mark_front") * 1e3 / rounds;
  r.values["core.validator.ms_per_point"] =
      trace.seconds("core.validator") * 1e3 / (npts * rounds);
  r.values["noc.packets_per_point"] =
      static_cast<double>(replay_packets) / (npts * rounds);
  r.values["noc.packets_per_s"] =
      static_cast<double>(replay_packets) / replay_seconds;

  // Model error against the simulator, from round 0's reports (identical
  // in every round by the checks above).
  double err_sum = 0.0, err_max = 0.0;
  int saturated = 0, overruns = 0;
  std::map<std::string, std::pair<double, int>> by_topo;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const core::ValidationReport& rep = reports[i];
    const double err =
        rep.offered_items_per_kcycle > 0.0
            ? std::abs(rep.simulated_items_per_kcycle -
                       rep.offered_items_per_kcycle) /
                  rep.offered_items_per_kcycle
            : 0.0;
    err_sum += err;
    err_max = std::max(err_max, err);
    saturated += rep.network_saturated ? 1 : 0;
    overruns += rep.peak_link_utilization > 1.0 ? 1 : 0;
    auto& t = by_topo[noc::to_string(topologies[i])];
    t.first += err;
    t.second += 1;
  }
  r.values["core.model.saturated_points"] = saturated;
  r.values["noc.utilization_overruns"] = overruns;
  r.values["core.model.error_max"] = err_max;
  r.values["core.model.error_mean"] =
      err_sum / static_cast<double>(reports.size());
  for (const auto& [topo, acc] : by_topo) {
    r.values["core.model.error_mean." + topo] = acc.first / acc.second;
  }

  r.values["core.trace_coverage"] = median(coverage);
  r.values["core.trace_overhead"] = median(traced_cpu) / median(pass_cpu) - 1.0;
  return r;
}

}  // namespace pb
