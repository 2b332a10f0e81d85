// warm_service: the always-on DSE service over TCP on a warm EvalCache.
//
// Inputs (from --seed): a universe of 4 ScenarioGenerator graphs and two
// anneal seeds (300 iterations), and a family of sweeps drawn from it:
//  - 4 batch sweeps: 2 scenarios x the default 128-candidate space at 90 nm
//    (256 points each);
//  - 4 interactive sweeps: 1 scenario x 8 candidates (8/16 PEs, 2/4
//    threads, mesh/crossbar, ASIP);
//  - per round, 1 fresh one-point sweep whose anneal seed is new, so
//    mapping misses and stores happen beside the hits.
// Set-up starts a DseService (2 pool threads, admission sized so nothing
// is refused) on a SocketTransport listening on 127.0.0.1, connects two
// DseClients over TCP, and warms the cache with every family sweep.
//
// A round runs, concurrently and closed-loop, the batch client's 4 batch
// sweeps and the interactive client's 4 interactive sweeps twice plus the
// fresh one. Outside the timed part, every TCP sweep is compared byte for
// byte with a cache-off in-process DseSession of the same request, and the
// batch sweeps are re-run through a 1-thread in-process DseSession on the
// warm cache (all hits) for the in-process rate.

#include <map>
#include <thread>

#include "common.hpp"
#include "soc/core/dse_wire.hpp"
#include "soc/core/eval_cache.hpp"
#include "soc/core/scenario.hpp"
#include "soc/svc/dse_client.hpp"
#include "soc/svc/dse_service.hpp"
#include "soc/tech/process_node.hpp"
#include "soc/tlm/socket.hpp"

namespace pb {

using namespace soc;

namespace {

struct Family {
  core::ScenarioSet universe;
  std::vector<core::SweepRequest> batch;
  std::vector<core::SweepRequest> interactive;
  std::uint64_t seed = 0;
};

core::SweepRequest base_request(const Family& f, std::uint64_t anneal_seed) {
  core::SweepRequest req;
  req.problem = core::DseProblem{f.universe.front(),
                                 core::ObjectiveSpace::default_space(),
                                 core::ObjectiveWeights{}, tech::node_90nm()};
  req.anneal.iterations = 300;
  req.anneal.seed = anneal_seed;
  req.config.num_threads = 1;
  req.config.mapper = "anneal";
  req.config.use_eval_cache = true;
  return req;
}

core::SweepRequest interactive_request(const Family& f, int k,
                                       std::uint64_t anneal_seed) {
  core::SweepRequest req = base_request(f, anneal_seed);
  req.scenarios = {f.universe[static_cast<std::size_t>(k) % f.universe.size()]};
  req.space.pe_counts = {8, 16};
  req.space.thread_counts = {2, 4};
  req.space.topologies = {noc::TopologyKind::kMesh2D,
                          noc::TopologyKind::kCrossbar};
  req.space.fabrics = {tech::Fabric::kAsip};
  return req;
}

Family make_family(std::uint64_t seed) {
  Family f;
  f.seed = seed;
  f.universe = core::ScenarioGenerator(derive(seed, 5)).matrix(4, 1);
  const std::uint64_t anneal_seeds[2] = {derive(seed, 6), derive(seed, 7)};
  for (int k = 0; k < 4; ++k) {
    core::SweepRequest req = base_request(f, anneal_seeds[k % 2]);
    req.scenarios = {f.universe[static_cast<std::size_t>(k)],
                     f.universe[static_cast<std::size_t>(k + 1) % 4]};
    f.batch.push_back(std::move(req));
    f.interactive.push_back(interactive_request(f, k, anneal_seeds[0]));
  }
  return f;
}

/// The cache-off in-process answer to a request.
struct Reference {
  std::vector<std::vector<std::uint32_t>> words;
  std::vector<std::size_t> front;
  std::vector<std::vector<std::size_t>> scenario_fronts;
};

Reference reference_of(const core::SweepRequest& req, Result& r) {
  core::DseConfig cfg = req.config;
  cfg.use_eval_cache = false;
  core::DseSession session(req.problem, req.scenarios, req.space, req.anneal,
                           cfg);
  const std::vector<core::DsePoint> pts = session.run();
  const std::size_t ncand = pts.size() / req.scenarios.size();
  if (const std::string e = check_fronts(pts, ncand, req.problem.objectives);
      !e.empty()) {
    r.fail("reference " + e);
  }
  if (const std::string e = check_rescore(pts, req.scenarios,
                                          req.problem.weights, cfg);
      !e.empty()) {
    r.fail("reference " + e);
  }
  return Reference{stream_words(pts), session.front_indices(),
                   session.scenario_fronts()};
}

void check_against(const svc::SweepResult& got, const Reference& want,
                   const char* what, Result& r) {
  if (got.cancelled || got.points.size() != want.words.size()) {
    r.fail(std::string(what) + ": TCP sweep returned " +
           std::to_string(got.points.size()) + " points, expected " +
           std::to_string(want.words.size()));
    return;
  }
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    if (core::marshal_point(got.points[i]) != want.words[i]) {
      r.fail(std::string(what) + ": TCP point " + std::to_string(i) +
             " differs from the cache-off session");
      return;
    }
  }
  if (got.front != want.front || got.scenario_fronts != want.scenario_fronts) {
    r.fail(std::string(what) + ": TCP fronts differ from the cache-off session");
  }
}

/// Bytes the socket transports have written: payload words plus the
/// 16-byte frame header of every frame.
double socket_bytes(const std::vector<tlm::SocketTransport*>& buses) {
  double bytes = 0.0;
  for (const tlm::SocketTransport* b : buses) {
    bytes += 4.0 * static_cast<double>(b->words_on_wire()) +
             16.0 * static_cast<double>(b->frames_sent());
  }
  return bytes;
}

}  // namespace

Result run_warm_service(const Options& opt, double setup_start) {
  Result r;
  const Family fam = make_family(opt.seed);

  auto server = tlm::SocketTransport::listen(0);
  svc::DseServiceConfig scfg;
  scfg.pool_threads = 2;
  scfg.max_active = 4;
  scfg.max_queued = 8;
  svc::DseService service(*server, svc::kServiceTerminal, scfg);
  auto batch_bus = tlm::SocketTransport::connect("127.0.0.1", server->port());
  auto inter_bus = tlm::SocketTransport::connect("127.0.0.1", server->port());
  svc::DseClient batch_client(*batch_bus, 1);
  svc::DseClient inter_client(*inter_bus, 2);
  const std::vector<tlm::SocketTransport*> buses = {server.get(), batch_bus.get(),
                                                    inter_bus.get()};
  // Warm the universe: every family sweep once, in process.
  for (const auto* list : {&fam.batch, &fam.interactive}) {
    for (const core::SweepRequest& req : *list) {
      core::DseSession(req.problem, req.scenarios, req.space, req.anneal,
                       req.config)
          .evaluate();
    }
  }
  r.values["setup_s"] = wall_s() - setup_start;

  std::vector<Reference> batch_ref, inter_ref;
  std::vector<double> round_cpu, first_ms, session_rate, session_cpu,
      traced_cpu, coverage;
  double tcp_seconds = 0.0, tcp_points = 0.0, tcp_bytes = 0.0;
  double traced_points = 0.0;
  std::uint64_t sweeps = 0;
  core::EvalCacheStats cache_delta{};
  std::vector<core::DsePoint> sample_stream;  // batch sweep 0, for the codecs
  Trace trace;

  const double t_loop = wall_s();
  int round = 0;
  do {
    // One point under a new anneal seed: a mapping miss and a store per
    // round, small enough that the cache (and so peak RSS) grows by only
    // one entry per round however fast the rounds go.
    core::SweepRequest fresh = interactive_request(
        fam, round, derive(fam.seed, 1000 + static_cast<std::uint64_t>(round)));
    fresh.space.pe_counts = {8};
    fresh.space.thread_counts = {2};
    fresh.space.topologies = {noc::TopologyKind::kMesh2D};
    std::vector<svc::SweepResult> batch_res, inter_res;
    std::string client_error;

    // Timed part: both clients, concurrently, over TCP.
    const core::EvalCacheStats s0 = core::EvalCache::global().stats();
    const double b0 = socket_bytes(buses);
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    std::thread inter([&] {
      try {
        for (int pass = 0; pass < 2; ++pass) {
          for (const core::SweepRequest& req : fam.interactive) {
            inter_res.push_back(inter_client.wait(inter_client.submit(req)));
          }
        }
        inter_res.push_back(inter_client.wait(inter_client.submit(fresh)));
      } catch (const std::exception& e) {
        client_error = e.what();
      }
    });
    try {
      for (const core::SweepRequest& req : fam.batch) {
        batch_res.push_back(batch_client.wait(batch_client.submit(req)));
      }
    } catch (const std::exception& e) {
      client_error = e.what();
    }
    inter.join();
    const double c1 = process_cpu_s();
    const double w1 = wall_s();
    cache_delta += core::EvalCache::global().stats().delta_since(s0);
    if (!client_error.empty()) {
      r.fail("TCP client: " + client_error);
      break;
    }
    double pts = 0.0;
    for (const auto* list : {&batch_res, &inter_res}) {
      for (const svc::SweepResult& res : *list) {
        pts += static_cast<double>(res.points_streamed);
      }
    }
    for (const svc::SweepResult& res : inter_res) {
      first_ms.push_back(res.time_to_first_point_ms);
    }
    round_cpu.push_back((c1 - c0) * 1e6 / pts);
    tcp_seconds += w1 - w0;
    tcp_points += pts;
    tcp_bytes += socket_bytes(buses) - b0;
    sweeps += batch_res.size() + inter_res.size();
    r.attempted += batch_res.size() + inter_res.size();

    // Checks (untimed): every TCP sweep against a cache-off session.
    if (round == 0) {
      for (const core::SweepRequest& req : fam.batch) {
        batch_ref.push_back(reference_of(req, r));
      }
      for (const core::SweepRequest& req : fam.interactive) {
        inter_ref.push_back(reference_of(req, r));
      }
      sample_stream = batch_res.front().points;
    }
    for (std::size_t k = 0; k < batch_res.size(); ++k) {
      check_against(batch_res[k], batch_ref[k], "batch sweep", r);
    }
    for (std::size_t k = 0; k + 1 < inter_res.size(); ++k) {
      check_against(inter_res[k], inter_ref[k % inter_ref.size()],
                    "interactive sweep", r);
    }
    check_against(inter_res.back(), reference_of(fresh, r), "fresh sweep", r);

    // In-process rate on the warm cache: the batch sweeps again, 1 thread.
    for (const core::SweepRequest& req : fam.batch) {
      const double sw0 = wall_s();
      const double sc0 = process_cpu_s();
      core::DseSession session(req.problem, req.scenarios, req.space,
                               req.anneal, req.config);
      session.front();
      const double n = static_cast<double>(session.points().size());
      session_rate.push_back(n / (wall_s() - sw0));
      session_cpu.push_back((process_cpu_s() - sc0) * 1e6 / n);
    }

    // Traced pass: the warm per-point path through the public layer calls.
    if (opt.trace) {
      const core::SweepRequest& req = fam.batch.front();
      const std::vector<core::DseCandidate> cands =
          core::enumerate_candidates(req.space, req.problem.node);
      const std::size_t ncand = cands.size();
      const double npts = static_cast<double>(ncand * req.scenarios.size());
      Trace pass;
      const double t0 = process_cpu_s();
      // Session set-up keys every candidate and scenario once; each point's
      // EvalContext then keys its candidate again before its lookups.
      double t = thread_cpu_s();
      std::vector<std::string> graph_keys;
      for (const core::TaskGraph& g : req.scenarios) {
        graph_keys.push_back(core::EvalCache::graph_key(g));
      }
      std::vector<std::string> cand_keys;
      for (const core::DseCandidate& c : cands) {
        cand_keys.push_back(core::EvalCache::platform_key(c, req.config));
      }
      pass.add("core.eval_cache.platform_key", cands.size(), thread_cpu_s() - t);
      std::vector<std::string> pkeys(static_cast<std::size_t>(npts));
      std::vector<std::string> mkeys(static_cast<std::size_t>(npts));
      t = thread_cpu_s();
      for (std::size_t f = 0; f < pkeys.size(); ++f) {
        pkeys[f] = core::EvalCache::platform_key(cands[f % ncand], req.config);
      }
      pass.add("core.eval_cache.platform_key", pkeys.size(), thread_cpu_s() - t);
      t = thread_cpu_s();
      for (std::size_t f = 0; f < mkeys.size(); ++f) {
        mkeys[f] = core::EvalCache::mapping_key(
            pkeys[f], graph_keys[f / ncand], req.config.mapper,
            req.problem.weights, req.config.constraints, req.anneal, false,
            sim::derive_seed(req.anneal.seed, f));
      }
      pass.add("core.eval_cache.mapping_key", mkeys.size(), thread_cpu_s() - t);
      std::size_t misses = 0;
      t = thread_cpu_s();
      for (std::size_t f = 0; f < mkeys.size(); ++f) {
        misses += core::EvalCache::global().find_platform(pkeys[f]) ? 0 : 1;
        misses += core::EvalCache::global().find_mapping(mkeys[f]) ? 0 : 1;
      }
      pass.add("core.eval_cache.find", mkeys.size(), thread_cpu_s() - t);
      if (misses != 0) r.fail("traced pass: the warm universe missed the cache");
      t = thread_cpu_s();
      for (std::size_t f = 0; f < mkeys.size(); ++f) {
        const core::TaskGraph work =
            work_graph(req.scenarios[f / ncand], cands[f % ncand].num_pes);
        if (work.node_count() == 0) r.fail("traced pass: empty work graph");
      }
      pass.add("core.task_graph.replicate", mkeys.size(), thread_cpu_s() - t);
      trace_mark_fronts(batch_res.front().points, ncand,
                        req.problem.objectives, req.config, pass);
      traced_cpu.push_back((process_cpu_s() - t0) * 1e6 / npts);
      traced_points += npts;
      double layered = 0.0;
      for (const auto& [name, row] : pass.rows()) {
        layered += row.seconds;
        trace.add(name, row.calls, row.seconds);
      }
      coverage.push_back(layered * 1e6 / npts / session_cpu.back());
    }
    ++round;
  } while (wall_s() - t_loop < opt.seconds);

  if (!opt.trace) {
    r.values["points_per_s"] = median(session_rate);
    r.values["cpu_us_per_point"] = median(round_cpu);
    r.values["first_result_ms"] = median(first_ms);
    r.values["wire_bytes_per_point"] = tcp_bytes / tcp_points;
  } else {
    per_point_rows(trace, traced_points, r.values);
    r.values["core.mark_front.ms"] =
        trace.seconds("core.mark_front") * 1e3 / static_cast<double>(round);
    r.values["core.session.cpu_us_per_point"] = median(session_cpu);
    const double lookups = static_cast<double>(
        cache_delta.platform_hits + cache_delta.platform_misses +
        cache_delta.mapping_hits + cache_delta.mapping_misses);
    const double hits =
        static_cast<double>(cache_delta.platform_hits + cache_delta.mapping_hits);
    r.values["core.eval_cache.hits"] = hits;
    r.values["core.eval_cache.misses"] = lookups - hits;
    r.values["core.eval_cache.hit_share"] = lookups > 0 ? hits / lookups : 0.0;
    codec_rows(sample_stream, r.values);
    r.values["svc.first_point_p90_ms"] = quantile(first_ms, 0.9);
    r.values["svc.points_per_s"] = tcp_points / tcp_seconds;
    r.values["svc.points_streamed"] = tcp_points;
    r.values["svc.sweeps_completed"] = static_cast<double>(sweeps);
    r.values["core.trace_coverage"] = median(coverage);
    r.values["core.trace_overhead"] =
        median(traced_cpu) / median(session_cpu) - 1.0;
  }

  // Quiesce: clients' transports first (no message is in flight once every
  // wait() returned), then the service, then the listening side.
  batch_bus->shutdown();
  inter_bus->shutdown();
  service.stop();
  server->shutdown();
  if (opt.trace) r.values["tlm.socket.round_trip_us"] = socket_round_trip_us();
  return r;
}

}  // namespace pb
