// cold_sweep: the uncached stage-1 DSE path, session and sharded.
//
// Inputs (from --seed): a 3-scenario ScenarioGenerator matrix (one graph
// per shape, tagged with 2 task kinds) x 3 process nodes (130, 90, 50 nm)
// x the default 128-candidate space = 1152 points per sweep, anneal mapper
// at 4000 iterations, EvalCache off, PE pools striped over 2 kind groups.
//
// A round is one 1-thread DseSession sweep followed by one
// run_distributed_sweep over 2 loopback workers on the same inputs. Rounds
// repeat until --seconds have passed. The session sweep is timed in parts
// of kChunk streamed points (the first part from the session's start, the
// last up to its front) and its rate is taken from quiet_pass_time over
// them. Round 0's stream is checked independently (dominance, re-scoring);
// every later sweep, session or sharded, must marshal byte-identically to
// it.

#include <cstdio>

#include "common.hpp"
#include "soc/core/distributed_sweep.hpp"
#include "soc/core/scenario.hpp"
#include "soc/tech/process_node.hpp"

namespace pb {

using namespace soc;

namespace {

constexpr std::size_t kChunk = 64;

struct Inputs {
  core::ScenarioSet scenarios;
  core::DseProblem problem{core::TaskGraph("")};
  core::DseSpace space;
  core::AnnealConfig anneal;
  core::DseConfig config;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.scenarios = core::ScenarioGenerator(derive(seed, 1)).matrix(3, 2);
  in.problem = core::DseProblem{in.scenarios.front(),
                                core::ObjectiveSpace::default_space(),
                                core::ObjectiveWeights{}, tech::node_90nm()};
  in.space.nodes = {*tech::find_node("130nm"), tech::node_90nm(),
                    tech::node_50nm()};
  in.anneal.iterations = 4000;
  in.anneal.seed = derive(seed, 2);
  in.config.num_threads = 1;
  in.config.mapper = "anneal";
  in.config.use_eval_cache = false;
  in.config.pe_kind_groups = 2;
  return in;
}

/// A 1-point sharded sweep: what a distributed run costs before any real
/// evaluation (request validation, worker set-up, kConfigure, merge).
double empty_sweep_ms(const Inputs& in) {
  core::DseSpace one;
  one.pe_counts = {4};
  one.thread_counts = {1};
  one.topologies = {noc::TopologyKind::kBus};
  one.fabrics = {tech::Fabric::kGeneralPurposeCpu};
  const core::ScenarioSet scen{in.scenarios.front()};
  std::vector<double> ms;
  for (int i = 0; i < 15; ++i) {
    const double t0 = wall_s();
    (void)core::run_distributed_sweep(in.problem, scen, one, in.anneal,
                                      in.config, 2);
    ms.push_back((wall_s() - t0) * 1e3);
  }
  return median(ms);
}

}  // namespace

Result run_cold_sweep(const Options& opt, double setup_start) {
  const Inputs in = make_inputs(opt.seed);
  Result r;
  r.values["setup_s"] = wall_s() - setup_start;

  const double t_loop = wall_s();
  const std::size_t ncand = 128 * in.space.nodes.size();
  const double npts = static_cast<double>(ncand * in.scenarios.size());

  std::vector<std::vector<std::uint32_t>> ref;  // round 0's stream
  std::vector<core::DsePoint> ref_points;
  std::vector<double> session_cpu, first_ms, sharded_cpu, sharded_rate,
      sharded_bytes, merge_ms, traced_cpu, coverage;
  // Session sweep time per part of kChunk points, one entry per round.
  std::vector<std::vector<double>> part_s(
      (static_cast<std::size_t>(npts) + kChunk - 1) / kChunk);
  double ranges = 0, steals = 0, dups = 0;
  Trace trace;
  std::unique_ptr<core::Mapper> mapper;
  std::unique_ptr<core::ShardEvaluator> shard;
  if (opt.trace) {
    mapper = core::make_mapper(in.config.mapper, in.anneal);
    shard = std::make_unique<core::ShardEvaluator>(
        in.problem, in.scenarios, in.space, in.anneal, in.config);
  }

  const auto check_stream = [&](const std::vector<core::DsePoint>& pts,
                                const char* what) {
    if (pts.size() != ref.size()) {
      r.fail(std::string(what) + ": point count differs from round 0");
      return;
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (core::marshal_point(pts[i]) != ref[i]) {
        r.fail(std::string(what) + ": point " + std::to_string(i) +
               " is not byte-identical to round 0");
        return;
      }
    }
  };

  int round = 0;
  do {
    // Session sweep, 1 thread: wall rate and time to its first point.
    double first = -1.0;
    std::size_t arrived = 0;
    std::vector<double> marks;  // part boundaries
    const double w0 = wall_s();
    marks.push_back(w0);
    const double c0 = process_cpu_s();
    std::vector<core::DsePoint> pts;
    std::vector<std::size_t> front;
    std::vector<std::vector<std::size_t>> scen_fronts;
    {
      core::DseSession session(in.problem, in.scenarios, in.space, in.anneal,
                               in.config);
      session.on_point([&](const core::DsePoint&, core::DseSession::Stage) {
        const double now = wall_s();
        if (first < 0.0) first = now - w0;
        if (++arrived % kChunk == 0 && arrived < npts) marks.push_back(now);
      });
      session.evaluate();
      session.front();
      const double w1 = wall_s();
      const double c1 = process_cpu_s();
      marks.push_back(w1);
      if (marks.size() != part_s.size() + 1) {
        r.fail("session sweep streamed " + std::to_string(arrived) +
               " points, not " + std::to_string(ncand * in.scenarios.size()));
        break;
      }
      for (std::size_t j = 0; j < part_s.size(); ++j) {
        part_s[j].push_back(marks[j + 1] - marks[j]);
      }
      session_cpu.push_back((c1 - c0) * 1e6 / npts);
      first_ms.push_back(first * 1e3);
      pts = session.points();
      front = session.front_indices();
      scen_fronts = session.scenario_fronts();
    }
    r.attempted += static_cast<std::uint64_t>(npts);

    // Sharded sweep over 2 loopback workers: CPU of every thread per point.
    const double c2 = process_cpu_s();
    const core::DistributedSweepResult dr = core::run_distributed_sweep(
        in.problem, in.scenarios, in.space, in.anneal, in.config, 2);
    const double c3 = process_cpu_s();
    sharded_cpu.push_back((c3 - c2) * 1e6 / npts);
    sharded_rate.push_back(npts / (dr.stats.wall_ms * 1e-3));
    sharded_bytes.push_back(4.0 * static_cast<double>(dr.stats.words_on_wire) /
                            npts);
    merge_ms.push_back(dr.stats.merge_ms);
    ranges += static_cast<double>(dr.stats.ranges_issued);
    steals += static_cast<double>(dr.stats.steals);
    dups += static_cast<double>(dr.stats.duplicate_points);
    r.attempted += static_cast<std::uint64_t>(npts);

    // Output checks (untimed).
    if (round == 0) {
      if (const std::string e =
              check_fronts(pts, ncand, in.problem.objectives);
          !e.empty()) {
        r.fail("session " + e);
      }
      if (const std::string e =
              check_rescore(pts, in.scenarios, in.problem.weights, in.config);
          !e.empty()) {
        r.fail("session " + e);
      }
      ref = stream_words(pts);
      ref_points = pts;
    } else {
      check_stream(pts, "session sweep");
    }
    check_stream(dr.points, "sharded sweep");
    if (dr.front != front || dr.scenario_fronts != scen_fronts) {
      r.fail("sharded sweep: fronts differ from the session's");
    }

    // Traced pass: the same points through the public layer calls.
    if (opt.trace) {
      Trace pass;
      const double t0 = process_cpu_s();
      for (std::size_t f = 0; f < pts.size(); ++f) {
        const auto [m, cost] = trace_cold_point(*shard, *mapper, f, pass);
        if (m != ref_points[f].mapping ||
            cost.objective != ref_points[f].mapping_cost.objective) {
          r.fail("traced pass: point " + std::to_string(f) +
                 " differs from the session's");
        }
      }
      trace_mark_fronts(ref_points, ncand, in.problem.objectives, in.config,
                        pass);
      traced_cpu.push_back((process_cpu_s() - t0) * 1e6 / npts);
      double layered = 0.0;
      for (const auto& [name, row] : pass.rows()) {
        layered += row.seconds;
        trace.add(name, row.calls, row.seconds);
      }
      coverage.push_back(layered * 1e6 / npts / session_cpu.back());
    }
    ++round;
  } while (wall_s() - t_loop < opt.seconds);

  const double rounds = static_cast<double>(round);
  if (round == 0) return r;  // no round completed (a failed check)
  if (!opt.trace) {
    r.values["points_per_s"] = npts / quiet_pass_time(part_s);
    r.values["cpu_us_per_point"] = quiet_time(sharded_cpu);
    r.values["first_result_ms"] = quiet_time(first_ms);
    r.values["wire_bytes_per_point"] = median(sharded_bytes);
    return r;
  }

  per_point_rows(trace, npts * rounds, r.values);
  r.values["core.mark_front.ms"] = trace.seconds("core.mark_front") * 1e3 / rounds;
  r.values["core.session.cpu_us_per_point"] = median(session_cpu);
  r.values["core.coordinator.cpu_us_per_point"] = median(sharded_cpu);
  r.values["core.coordinator.ranges_issued"] = ranges / rounds;
  r.values["core.coordinator.steals"] = steals / rounds;
  r.values["core.coordinator.duplicate_points"] = dups / rounds;
  r.values["core.coordinator.words_per_point"] = median(sharded_bytes) / 4.0;
  r.values["core.coordinator.merge_ms"] = median(merge_ms);
  r.values["core.coordinator.points_per_s"] = median(sharded_rate);
  r.values["core.coordinator.empty_sweep_ms"] = empty_sweep_ms(in);
  r.values["tlm.loopback.round_trip_us"] = loopback_round_trip_us();
  codec_rows(ref_points, r.values);
  r.values["core.trace_coverage"] = median(coverage);
  r.values["core.trace_overhead"] =
      median(traced_cpu) / median(session_cpu) - 1.0;
  return r;
}

}  // namespace pb
