// Shared pieces of gpcbench: arguments, the result record it prints, and
// the statistics every workload uses.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.h"

namespace perfbench {

/// What one process is asked to produce.
///  * E2e:    end-to-end metrics over a timed region of `seconds`.
///  * Layers: per-layer metrics that need no tracing (direct pings, exact
///            counters, per-unit timings) plus the untraced wall time of the
///            unit the traced process repeats.
///  * Traced: the same unit under GPC_PROF with the benchmark's own spans;
///            reports per-layer self times that sum to the traced wall.
///  * Digest: prints the workload's committed digest (perfbench/expected)
///            as this build computes it, for regenerating it on purpose.
enum class Mode { E2e, Layers, Traced, Digest };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  Mode mode = Mode::E2e;
  std::string expected_dir;  // committed digests (perfbench/expected)
};

/// The process's result: a correctness tally plus named metric values.
struct Output {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  std::vector<std::pair<std::string, double>> metrics;

  void fail(const std::string& why);
  void add(const std::string& name, double value);
  /// Counts one operation, failed when `ok` is false.
  void check(bool ok, const std::string& what);
};

double now_s();
/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// The timing statistic for repeated identical units: the mean of the
/// fastest quarter of the samples (at least one). The host's speed drifts
/// for tens of seconds at a time; the fastest units of a run move less
/// between processes than its median does.
double fast_quartile_mean(std::vector<double> v);

/// Latency histogram in 0.1 us buckets up to 100 ms (slower samples land in
/// the last bucket). Its size is fixed, so peak RSS does not grow with the
/// number of samples a run collects.
class LatencyHistogram {
 public:
  void add(double us);
  std::uint64_t count() const { return count_; }
  /// Quantile over every sample, to the bucket resolution.
  double quantile(double q) const;

 private:
  static constexpr double kBucketUs = 0.1;
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(1'000'000);
  std::uint64_t count_ = 0;
};

/// Moves every thread of the process onto `k` of the CPUs the process
/// started with, beginning at index `turn` and wrapping around. The host's
/// vCPUs differ in speed, and each keeps its speed for tens of seconds, so
/// a run that stays on one vCPU measures that vCPU. Rotating the process
/// over all of them, one pass or window at a time, lets every unit's
/// statistic see each of them.
void rotate_cpus(std::size_t turn, std::size_t k);
/// Lets every thread run on all of the process's CPUs again, as the traced
/// process does.
void use_all_cpus();

double peak_rss_mb();
/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// Scheduler-issued warp instructions (one bump per issue, by kind).
std::uint64_t warp_instr(const gpc::sim::BlockStats& s);

/// The non-comment lines of the committed digest `expected_dir/name`;
/// throws gpc::InvalidArgument when it is missing.
std::vector<std::string> read_expected(const Args& args,
                                       const std::string& name);

void run_paper_suite(const Args& args, Output& out);
void run_sim_memory(const Args& args, Output& out);
void run_launch_flood(const Args& args, Output& out);

}  // namespace perfbench
