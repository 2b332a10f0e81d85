#pragma once

// Shared plumbing of the DSE benchmark: clocks, order statistics, the
// outside-in layer trace, the run's result record, and the independent
// output checks every workload applies to the program's answers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "soc/core/dse_session.hpp"
#include "soc/core/mapper.hpp"
#include "soc/core/mapping_validator.hpp"

namespace pb {

// ---------------------------------------------------------------- clocks ---

/// Monotonic wall clock, seconds (CLOCK_MONOTONIC, the clock run.py stamps
/// the process spawn with).
double wall_s();
/// CPU time of the whole process (all threads), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set size of the process so far, MB.
double peak_rss_mb();

// ------------------------------------------------------------ statistics ---

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The host's speed drifts in phases lasting seconds (README, "Host
/// drift"), so a median over a run moves with the share of the run the
/// host spent slow. Timed figures of the single-threaded paths are
/// therefore taken at the fast end of many short samples: the 10th
/// percentile of times, which is what the program costs while the host is
/// not slowing it.
inline double quiet_time(const std::vector<double>& v) {
  return quantile(v, 0.1);
}

/// quiet_time of a whole pass that was timed in parts: parts[k][r] is part
/// k's time in round r. Each sample is scaled up to a whole pass by its
/// part's share of the pass (per-part medians over the rounds), so every
/// short sample estimates the pass time.
double quiet_pass_time(const std::vector<std::vector<double>>& parts);

// ---------------------------------------------------------------- inputs ---

/// Stateless 64-bit mix of (seed, stream): every generated input of a
/// workload derives from the run's --seed through one of these streams.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------- result ---

/// One metric of BENCHMARK.json: its name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run of every workload.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, printed by every traced run of every workload; a
/// layer the workload does not drive reads 0.
extern const std::vector<MetricDef> kPerLayer;

/// What one run measured: metric values by name (end-to-end figures in
/// untraced runs, layer rows in traced runs), operation counts, and the
/// verdict of the output checks.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// First failed check, for the error report.
  std::string failure;

  /// Records a failed output check (the first message is kept).
  void fail(const std::string& what) {
    if (correct) failure = what;
    correct = false;
  }
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// CLOCK_MONOTONIC seconds at which run.py spawned this process; setup_s
  /// is measured from here (0: from main()).
  double t_spawn = 0.0;
  /// Directory result and trace files are written to.
  std::string out_dir = ".bench_out";
  /// Source identity stamped on the result (commit or tree digest).
  std::string source_id = "unknown";
};

// ----------------------------------------------------------------- trace ---

/// Outside-in layer trace: each row accumulates the thread CPU time and
/// call count of calls the benchmark makes into one public function.
class Trace {
 public:
  struct Row {
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };
  /// Runs `f`, charging its thread CPU time to `layer`.
  template <class F>
  decltype(auto) time(const std::string& layer, F&& f) {
    const double t0 = thread_cpu_s();
    struct Charge {
      Row& row;
      double t0;
      ~Charge() {
        row.seconds += thread_cpu_s() - t0;
        ++row.calls;
      }
    } charge{rows_[layer], t0};
    return f();
  }
  /// Adds `calls` calls and `seconds` of time measured elsewhere (batched
  /// timing of calls too short to clock one by one).
  void add(const std::string& layer, std::uint64_t calls, double seconds) {
    Row& r = rows_[layer];
    r.calls += calls;
    r.seconds += seconds;
  }
  const std::map<std::string, Row>& rows() const noexcept { return rows_; }
  /// Total seconds charged to `layer` (0 when never charged).
  double seconds(const std::string& layer) const;
  /// Calls charged to `layer` (0 when never charged).
  std::uint64_t calls(const std::string& layer) const;

 private:
  std::map<std::string, Row> rows_;
};

// ---------------------------------------------------------------- checks ---
//
// Independent of the program's own answers: the benchmark's dominance pass,
// re-scoring through the public evaluator, byte identity through the
// canonical codec, and replay report invariants.

/// Canonical words of a point stream (marshal_point per point).
std::vector<std::vector<std::uint32_t>> stream_words(
    const std::vector<soc::core::DsePoint>& points);

/// O(n^2) dominance pass over each scenario slice of a scenario-major grid
/// (`ncand` points per slice): every pareto_optimal point must be feasible
/// and non-dominated, and every other feasible point must be dominated by a
/// front point of its slice. Returns "" or the first violation.
std::string check_fronts(const std::vector<soc::core::DsePoint>& points,
                         std::size_t ncand,
                         const soc::core::ObjectiveSpace& objectives);

/// The work graph a point of `graph` is scored on (replicated onto larger
/// pools exactly as the DSE does: num_pes / |graph| copies, at least one).
soc::core::TaskGraph work_graph(const soc::core::TaskGraph& graph, int num_pes);

/// Re-scores every point's mapping with evaluate_mapping on a fresh
/// make_candidate_platform and compares against the stored MappingCost,
/// field for field through the canonical codec. Returns "" or the first
/// mismatch.
std::string check_rescore(const std::vector<soc::core::DsePoint>& points,
                          const soc::core::ScenarioSet& scenarios,
                          const soc::core::ObjectiveWeights& weights,
                          const soc::core::DseConfig& config);

/// Canonical bit pattern of every field of a replay report.
std::vector<std::uint64_t> report_words(const soc::core::ValidationReport& r);

/// Replay report invariants that hold on every seeded input: peak link
/// utilization is not negative, and a saturated point simulates less than
/// it was offered. The upper bound (utilization <= 1) is broken by the
/// simulator on saturated links for some seeds -- busy cycles are charged
/// when a packet starts serializing, so the last packet's tail can land
/// past the window -- and is checked on a fixed input instead, where it
/// fails in every run (contention_replay's overrun probe). Returns "" or
/// the violation.
std::string check_report(const soc::core::ValidationReport& r);

// ------------------------------------------------------------- workloads ---

Result run_cold_sweep(const Options& opt, double setup_start);
Result run_contention_replay(const Options& opt, double setup_start);
Result run_warm_service(const Options& opt, double setup_start);

// ----------------------------------------------------- shared measurements ---

/// Parallel capacity the host grants right now: the work rate of 4 spinning
/// threads over that of 1 (4.0 on 4 idle cores).
double measure_parallel_capacity();

/// Median round trip of a one-word ping-pong between two endpoints on an
/// in-process LoopbackTransport, microseconds.
double loopback_round_trip_us();

/// Median round trip of a one-word ping-pong over a TCP SocketTransport
/// pair on 127.0.0.1, microseconds.
double socket_round_trip_us();

/// Per-point cost of the dse_wire and dsoc codecs over `points`, clocked
/// over the whole stream at once (single calls are too short to clock):
/// writes the core.dse_wire.* and dsoc.marshal_call.us figures.
void codec_rows(const std::vector<soc::core::DsePoint>& points,
                std::map<std::string, double>& values);

/// Writes every row of `trace` as `<row>.us` (microseconds per point) and
/// `<row>.calls` (calls per point) over `points` traced points.
void per_point_rows(const Trace& trace, double points,
                    std::map<std::string, double>& values);

/// Builds the PlatformDesc a cache-off sweep evaluates `cand` on, from
/// outside and charging each public call to its layer row: the cost
/// topology build, the silicon estimate, the floorplanned PE topology build
/// and the PlatformDesc constructor.
soc::core::PlatformDesc trace_platform(const soc::core::DseCandidate& cand,
                                       const soc::core::DseConfig& config,
                                       Trace& trace);

/// Replicates ShardEvaluator::evaluate's cold (cache-off) path for flat
/// point `flat` from outside, charging each public call to its layer row
/// of `trace`: two topology builds, the silicon estimate, the PlatformDesc
/// constructor, the work-graph replication, the mapper and the full
/// evaluation. Returns the point's (mapping, cost) so callers can check the
/// traced path produced the untraced one's answer.
std::pair<soc::core::Mapping, soc::core::MappingCost> trace_cold_point(
    const soc::core::ShardEvaluator& shard, const soc::core::Mapper& mapper,
    std::size_t flat, Trace& trace);

/// Marks each scenario slice's front from outside with
/// ObjectiveSpace::mark_front, charging core.mark_front.
void trace_mark_fronts(const std::vector<soc::core::DsePoint>& points,
                       std::size_t ncand,
                       const soc::core::ObjectiveSpace& objectives,
                       const soc::core::DseConfig& config, Trace& trace);

}  // namespace pb
