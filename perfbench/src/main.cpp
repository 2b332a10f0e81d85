// dsebench: one process, one workload, one JSON result line.
//
//   dsebench --workload <cold_sweep|contention_replay|warm_service>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--t-spawn <CLOCK_MONOTONIC s>] [--out <dir>] [--source <id>]
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. The full record (stamp, metrics, layer rows) is also written
// to <out>/<workload>-seed<n>-trace<t>.json. A failed output check prints
// the result with "correct": false and exits 1.

#include <sched.h>
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace pb {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"points_per_s", "points/s"},
    {"cpu_us_per_point", "us"},
    {"first_result_ms", "ms"},
    {"wire_bytes_per_point", "bytes"},
};

const std::vector<MetricDef> kPerLayer = {
    {"noc.make_topology.us", "us"},
    {"noc.make_topology.calls", "count"},
    {"platform.estimate_cost.us", "us"},
    {"core.platform_desc.us", "us"},
    {"core.task_graph.replicate.us", "us"},
    {"core.mapper.anneal.us", "us"},
    {"core.mapper.anneal.calls", "count"},
    {"core.mapper.greedy.us", "us"},
    {"core.evaluate_mapping.us", "us"},
    {"core.mark_front.ms", "ms"},
    {"core.session.cpu_us_per_point", "us"},
    {"core.coordinator.cpu_us_per_point", "us"},
    {"core.coordinator.ranges_issued", "count"},
    {"core.coordinator.steals", "count"},
    {"core.coordinator.duplicate_points", "count"},
    {"core.coordinator.words_per_point", "words"},
    {"core.coordinator.merge_ms", "ms"},
    {"core.coordinator.empty_sweep_ms", "ms"},
    {"core.coordinator.points_per_s", "points/s"},
    {"tlm.loopback.round_trip_us", "us"},
    {"host.parallel_capacity", "cpus"},
    {"core.validator.ms_per_point", "ms"},
    {"noc.packets_per_point", "count"},
    {"noc.packets_per_s", "1/s"},
    {"noc.utilization_overruns", "count"},
    {"core.model.saturated_points", "count"},
    {"core.model.error_max", "ratio"},
    {"core.model.error_mean", "ratio"},
    {"core.model.error_mean.bus", "ratio"},
    {"core.model.error_mean.ring", "ratio"},
    {"core.model.error_mean.binary-tree", "ratio"},
    {"core.model.error_mean.fat-tree", "ratio"},
    {"core.model.error_mean.mesh", "ratio"},
    {"core.model.error_mean.torus", "ratio"},
    {"core.model.error_mean.crossbar", "ratio"},
    {"core.eval_cache.platform_key.us", "us"},
    {"core.eval_cache.mapping_key.us", "us"},
    {"core.eval_cache.find.us", "us"},
    {"core.eval_cache.hits", "count"},
    {"core.eval_cache.misses", "count"},
    {"core.eval_cache.hit_share", "ratio"},
    {"core.dse_wire.marshal_point.us", "us"},
    {"core.dse_wire.unmarshal_point.us", "us"},
    {"core.dse_wire.words_per_point", "words"},
    {"dsoc.marshal_call.us", "us"},
    {"tlm.socket.round_trip_us", "us"},
    {"svc.first_point_p90_ms", "ms"},
    {"svc.points_per_s", "points/s"},
    {"svc.points_streamed", "count"},
    {"svc.sweeps_completed", "count"},
    {"core.trace_coverage", "ratio"},
    {"core.trace_overhead", "ratio"},
};

}  // namespace pb

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dsebench: %s\nusage: dsebench --workload <cold_sweep|"
               "contention_replay|warm_service> --seed <n> --seconds <s> "
               "--trace <0|1> [--t-spawn <s>] [--out <dir>] [--source <id>]\n",
               why);
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno || *end) usage("--seed must be a non-negative integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (errno || *end || !(opt.seconds > 0.0) || opt.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--t-spawn") {
      opt.t_spawn = std::strtod(value.c_str(), &end);
      if (errno || *end) usage("--t-spawn must be a number");
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else if (flag == "--source") {
      opt.source_id = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int cpus_in_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = pb::wall_s();
  const pb::Options opt = parse(argc, argv);
  const double setup_start = opt.t_spawn > 0.0 ? opt.t_spawn : t_main;

  pb::Result result;
  try {
    if (opt.workload == "cold_sweep") {
      result = pb::run_cold_sweep(opt, setup_start);
    } else if (opt.workload == "contention_replay") {
      result = pb::run_contention_replay(opt, setup_start);
    } else if (opt.workload == "warm_service") {
      result = pb::run_warm_service(opt, setup_start);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsebench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (result.attempted == 0) result.fail("no operation was attempted");

  result.values["peak_rss_mb"] = pb::peak_rss_mb();
  const double capacity = pb::measure_parallel_capacity();
  if (opt.trace) result.values["host.parallel_capacity"] = capacity;

  // The printed set is fixed by BENCHMARK.json: an end-to-end figure the
  // workload failed to produce is a benchmark fault; a layer it does not
  // drive reads 0.
  const std::vector<pb::MetricDef>& printed =
      opt.trace ? pb::kPerLayer : pb::kEndToEnd;
  std::string metrics;
  for (const pb::MetricDef& m : printed) {
    const auto it = result.values.find(m.name);
    double v = 0.0;
    if (it != result.values.end()) {
      v = it->second;
    } else if (!opt.trace) {
      result.fail(std::string("end-to-end metric ") + m.name + " not measured");
    }
    if (!std::isfinite(v)) {
      result.fail(std::string("metric ") + m.name + " is not finite");
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const std::string line = std::string("{\"correct\": ") +
                           (result.correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(result.attempted) +
                           ", \"failed\": " + std::to_string(result.failed) +
                           ", \"metrics\": {" + metrics + "}}";

  // Full record: the stamp, the printed line, and every figure measured.
  std::string stamp = "{\"workload\": " + json_string(opt.workload) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"seconds\": " + json_number(opt.seconds) +
                      ", \"trace\": " + (opt.trace ? "1" : "0") +
                      ", \"source\": " + json_string(opt.source_id) +
                      ", \"compiler\": " + json_string(__VERSION__) +
                      ", \"nproc\": " + std::to_string(cpus_in_affinity()) +
                      ", \"hardware_concurrency\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"parallel_capacity\": " + json_number(capacity) +
                      ", \"attempted\": " + std::to_string(result.attempted) +
                      ", \"failed\": " + std::to_string(result.failed) + "}";
  std::string figures;
  for (const auto& [name, v] : result.values) {
    if (!figures.empty()) figures += ", ";
    figures += json_string(name) + ": " +
               json_number(std::isfinite(v) ? v : 0.0);
  }
  std::fprintf(stderr, "dsebench: stamp %s\n", stamp.c_str());
  if (!result.correct) {
    std::fprintf(stderr, "dsebench: CHECK FAILED: %s\n", result.failure.c_str());
  }
  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"stamp\": %s,\n \"result\": %s,\n \"figures\": {%s}}\n",
                 stamp.c_str(), line.c_str(), figures.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
